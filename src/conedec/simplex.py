"""Exact simplex over the rationals for desk-scale LPs.

Solves  min c . x  subject to  A x <= b, x >= 0  by fraction-free integer
pivoting.  Variables 0..n-1 are structural and n..n+m-1 the slacks.
Bland's rule picks both the entering and the leaving variable by variable
index, which rules out cycling.  The starting basis is the slack basis, so
b >= 0 is required; every system produced in this package satisfies it
(the origin is feasible).  The constructor takes one input format: the
constraint rows sparse and integer, as the decode LP compiles them from H.

The tableau is the condensed one: T = d * R over the nonbasic columns and
the rhs, where R is the usual rational tableau and d > 0 is the previous
pivot element.  Only part of it is stored:

  * the constraint rows, sparse: each a tuple of (j, a_kj) pairs with its
    rhs, plus a column index holding the pairs (k, a_kj) of each
    structural j.  Both are immutable and never pivoted, so the solves
    that with_objective starts all share them;
  * the core: for each basic structural j, its condensed row core[j]
    (n + 1 integers), so at most n rows;
  * the objective row.

The row of a basic slack k is derived from its constraint row on demand:

    T_k[l] = d * a_k[nonbasic[l]] - sum_{j basic} a_kj * core[j][l]
    rhs_k  = d * b_k              - sum_{j basic} a_kj * core[j][-1]

where a_k[v] = 0 for a slack v, and both sums run over the support of a_k.
These are the condensed tableau's entries exactly.  Substituting each basic
x_j = (core[j][-1] - sum_l core[j][l] x_nonbasic[l]) / d into
s_k = b_k - a_k . x writes s_k in the nonbasic variables, and a basic
variable has only one such expression: the rational tableau is fixed by
the basis (and the order of the nonbasic columns), whatever pivots led to
it.  Scaled by the same d, the derived row is therefore the row the full
condensed tableau would hold.

Exchanging basis[r] with nonbasic[s] at pivot p = T[r][s] materializes row
r and applies the fraction-free Jordan step

    T'[i][j] = (T[i][j] * p - T[i][s] * T[r][j]) // d    (i != r, j != s)
    T'[i][s] = -T[i][s]                                   (i != r)
    T'[r][s] = d,  rest of row r unchanged,  then d = p

to the core rows and the objective row only (the division is known to be
exact, so every comparison stays exact).  An entering structural's row
joins the core and a leaving structural's row leaves it.  The ratio test
builds the entering column through the column index: only the entering
structural's own column and the columns of basic structurals with a
nonzero in column s contribute.  The rhs of the slack rows comes from one
pass that scales b and subtracts the columns of the basic structurals off
zero.  On the decode LPs that is cheaper than summing the support of each
row with a positive entry: on Hamming [15,11] about a quarter of the 542
rows have one, and few structurals are off zero.  A pivot thus costs
O(n^2 + m) plus the columns it touches, not O(m n), and it takes exactly
the pivots of the full condensed tableau.

The tie check (_optimum_is_unique) runs on the degenerate rows only, those
whose basic variable sits at zero, as an auxiliary LP in which every pivot
is degenerate.  One pass over the rhs finds those rows; their entries over
the zero-reduced-cost columns are then derived row by row, in row order.

solve logs one DEBUG line: rows, solve pivots, tie-check pivots, the
degenerate rows the tie check took, and basic structurals at the optimum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import dd
from .errors import NumericalFailure

logger = logging.getLogger(__name__)

MAX_PIVOTS = 100000


@dataclass(frozen=True)
class SimplexResult:
    objective: Fraction
    x: tuple[Fraction, ...]
    unique: bool  # True iff the optimal face is the single vertex x


class ExactSimplex:
    def __init__(self, n: int, rows: Sequence, b: Sequence[int], c: Sequence):
        """min c . x over n structurals and the sparse integer rows: rows[k]
        is a tuple of (j, a_kj) pairs, a_kj != 0, with rhs b[k] >= 0."""
        self._store(n, rows, b)
        self._start(c)

    def _store(self, n: int, rows: Sequence, b: Sequence[int]) -> None:
        """Keep n, the sparse rows with their rhs, and the column index
        built from them.  Row k's columns share one (k, a) entry per
        distinct coefficient a: an odd-set row has just (k, 1) and (k, -1)."""
        if any(rhs < 0 for rhs in b):
            raise ValueError("slack basis start requires b >= 0")
        cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for k, pairs in enumerate(rows):
            entry: dict[int, tuple[int, int]] = {}
            for j, a in pairs:
                cols[j].append(entry.setdefault(a, (k, a)))
        self.n, self.m = n, len(rows)
        self._rows, self._b = tuple(rows), tuple(b)
        self._cols = tuple(map(tuple, cols))

    def _start(self, c: Sequence) -> None:
        """Objective row c at the slack basis."""
        if len(c) != self.n:
            raise ValueError("objective has wrong length")
        self.obj: list[int] = [*dd.integerize(c), 0]
        self.c = tuple(c)
        self.d = 1
        self.basis = list(range(self.n, self.n + self.m))
        self.nonbasic = list(range(self.n))
        self.core: dict[int, list[int]] = {}
        # Position in basis of a basic variable, ~column of a nonbasic one.
        self._where = [~j for j in range(self.n)] + list(range(self.m))
        self.pivots = 0
        self._tie_rows = self._tie_pivots = 0

    def with_objective(self, c: Sequence) -> "ExactSimplex":
        """A fresh simplex at the slack basis on this one's constraint rows
        with objective c.  The sparse rows and the column index are shared,
        not copied: no pivot writes into them."""
        sx = object.__new__(ExactSimplex)
        sx.n, sx.m = self.n, self.m
        sx._rows, sx._b, sx._cols = self._rows, self._b, self._cols
        sx._start(c)
        return sx

    def _slack_rhs(self) -> list[int]:
        """rhs_k of every slack row k, as if its slack were basic.

        Summed by columns: only basic structurals off zero contribute."""
        d, cols = self.d, self._cols
        rhs = [d * b for b in self._b] if d != 1 else list(self._b)
        for j, row in self.core.items():
            beta = row[-1]
            if beta:
                for k, a in cols[j]:
                    rhs[k] -= a * beta
        return rhs

    def _slack_row(self, k: int) -> list[int]:
        """The condensed row of basic slack n + k, derived from a_k."""
        d, core, where = self.d, self.core, self._where
        row = [0] * self.n
        row.append(d * self._b[k])
        for j, a in self._rows[k]:
            c = core.get(j)
            if c is None:
                row[~where[j]] += d * a
            else:
                row = [x - a * y for x, y in zip(row, c)]
        return row

    def _pivot(self, r: int, s: int) -> None:
        """Exchange basis[r] with nonbasic[s] (a fraction-free Jordan step)."""
        n, core = self.n, self.core
        leaving, entering = self.basis[r], self.nonbasic[s]
        prow = core[leaving] if leaving < n else self._slack_row(leaving - n)
        piv = prow[s]
        if piv <= 0:
            raise NumericalFailure("nonpositive pivot")
        d = self.d
        for j, row in chain(core.items(), [(-1, self.obj)]):
            if j == leaving:
                continue
            f = row[s]
            if f == 0:
                if piv == d:
                    continue
                row = [x * piv // d for x in row]
            else:
                row = [(x * piv - f * y) // d for x, y in zip(row, prow)]
                row[s] = -f
            if j < 0:
                self.obj = row
            else:
                core[j] = row
        # The leaving variable's column: d * e_r before the step, so the
        # update above reduces to -T[i][s] off the pivot row and d on it.
        # prow is derived here or the leaving core row, so no one else
        # holds it.
        prow[s] = d
        if leaving < n:
            del core[leaving]
        if entering < n:
            core[entering] = prow
        self.d = piv
        self.basis[r], self.nonbasic[s] = entering, leaving
        self._where[entering], self._where[leaving] = r, ~s
        self.pivots += 1

    def _leaving(self, s: int) -> int:
        """Bland's ratio test on column s: the position of the leaving
        variable, or -1 if no entry is positive.  Ties in the ratio go to
        the smallest basic variable index."""
        n, d, core, cols = self.n, self.d, self.core, self._cols
        entering = self.nonbasic[s]
        # Column s over the slack rows: T_k[s] keyed by k.
        if entering >= n:
            col = {}
        elif d == 1:
            col = dict(cols[entering])
        else:
            col = {k: d * a for k, a in cols[entering]}
        get = col.get
        cands = []  # (rhs, entry, basic variable) with a positive entry
        for j, row in core.items():
            t = row[s]
            if t:
                for k, a in cols[j]:
                    col[k] = get(k, 0) - a * t
                if t > 0:
                    cands.append((row[-1], t, j))
        where = self._where
        slack = [(k, t) for k, t in col.items() if t > 0 and where[n + k] >= 0]
        if slack:
            rhs = self._slack_rhs()
            cands += [(rhs[k], t, n + k) for k, t in slack]
        if not cands:
            return -1
        b_rhs, b_t, b_var = cands[0]
        for rhs, t, var in cands:
            cmp = rhs * b_t - b_rhs * t
            if cmp < 0 or (cmp == 0 and var < b_var):
                b_rhs, b_t, b_var = rhs, t, var
        return where[b_var]

    def _run(self, max_pivots: int) -> bool:
        """Bland's-rule pivots until no reduced cost is negative.

        The entering variable is the one of smallest variable index with a
        negative reduced cost; the nonbasic columns are in exchange order,
        so that need not be the first such column.

        Returns True at an optimal basis and False on an unbounded improving
        ray.
        """
        n, nonbasic = self.n, self.nonbasic
        for _ in range(max_pivots):
            obj = self.obj
            s = -1
            for j in range(n):
                if obj[j] < 0 and (s < 0 or nonbasic[j] < nonbasic[s]):
                    s = j
            if s < 0:
                return True
            r = self._leaving(s)
            if r < 0:
                return False
            self._pivot(r, s)
        raise NumericalFailure("pivot limit hit")

    def solve(self) -> SimplexResult:
        if not self._run(MAX_PIVOTS):
            raise NumericalFailure("LP is unbounded; expected a boxed region")
        x = self._solution()
        res = SimplexResult(
            # Only basic structurals can be nonzero.
            objective=sum((Fraction(self.c[j]) * x[j] for j in self.core), Fraction(0)),
            x=x,
            unique=self._optimum_is_unique(),
        )
        logger.debug(
            "solve: %d rows, %d solve pivots, %d tie-check pivots, "
            "%d degenerate rows, %d basic structurals",
            self.m, self.pivots, self._tie_pivots, self._tie_rows, len(self.core),
        )
        return res

    def _solution(self) -> tuple[Fraction, ...]:
        vals = [Fraction(0)] * self.n
        for j, row in self.core.items():
            vals[j] = Fraction(row[-1], self.d)
        return tuple(vals)

    def _optimum_is_unique(self) -> bool:
        """Whether the optimal face is a single point.

        At an optimal basis, any feasible point with the optimal objective
        must keep every nonbasic variable with a positive reduced cost at
        zero; dropping those columns leaves the optimal face exactly.  The
        face contains a second point iff some u >= 0, u != 0, over the
        remaining nonbasic columns satisfies W u <= rhs.  That holds iff
        some u >= 0, u != 0, satisfies W_D u <= 0, where D is the set of
        degenerate rows (rhs 0).  A u with W u <= rhs has W_D u <= rhs_D = 0;
        conversely, for a u with W_D u <= 0, eps * u also keeps every row of
        rhs > 0 once eps > 0 is small enough.  So the check is an
        auxiliary LP, min -sum(u) over W_D u <= 0, u >= 0, started at u = 0:
        every pivot is degenerate, and it ends either optimal at u = 0
        (unique) or on an unbounded ray (a tie).  This makes the answer a
        property of the geometry, not of the pivot path that got here.

        The degenerate rows are the ones the tie check reports taking; it
        takes none when no reduced cost is zero.
        """
        n, d, core, rows = self.n, self.d, self.core, self._rows
        # Ordered by variable index, so the auxiliary LP and its pivots
        # depend on the optimal basis alone, not on the exchange order.
        obj = self.obj
        zero_cols = sorted([l for l in range(n) if obj[l] == 0], key=self.nonbasic.__getitem__)
        if not zero_cols:
            return True
        # One rhs pass, indexed by variable: the degenerate rows in row order.
        rhs = [0] * n + self._slack_rhs()
        for j, row in core.items():
            rhs[j] = row[-1]
        degenerate = [v for v in self.basis if not rhs[v]]
        # Over zero_cols, slack row k is -sum_j a_kj * part[j] over the
        # support of a_k.  part[j] is sparse, as (t, value) pairs: -d in
        # column t for a nonbasic structural j at zero_cols[t], core[j]
        # over zero_cols for a basic one (its own row when it is degenerate),
        # nothing otherwise.
        z = len(zero_cols)
        part: list = [()] * n
        for t, l in enumerate(zero_cols):
            if self.nonbasic[l] < n:
                part[self.nonbasic[l]] = ((t, -d),)
        for j, row in core.items():
            part[j] = tuple([(t, row[l]) for t, l in enumerate(zero_cols) if row[l]])
        A = []
        for v in degenerate:
            if v < n:
                A.append(part[v])
                continue
            w = [0] * z
            for j, a in rows[v - n]:
                for t, y in part[j]:
                    w[t] -= a * y
            A.append(tuple([(t, x) for t, x in enumerate(w) if x]) if any(w) else ())
        aux = ExactSimplex(z, A, [0] * len(A), [-1] * z)
        unique = aux._run(MAX_PIVOTS)
        self._tie_rows, self._tie_pivots = len(A), aux.pivots
        return unique

