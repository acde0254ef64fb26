"""Exact simplex over the rationals for desk-scale LPs.

Solves  min c . x  subject to  A x <= b, x >= 0  with integer pivoting on a
condensed tableau: a basic column is always d * e_r, so only the nonbasic
columns and the rhs are stored, m + 1 rows of n + 1 integers.  The tableau
holds T = d * R, where R is the usual rational tableau and d > 0 is the
previous pivot element.  Exchanging basis[r] with nonbasic[s] at pivot
p = T[r][s] is the fraction-free Jordan step

    T'[i][j] = (T[i][j] * p - T[i][s] * T[r][j]) // d    (i != r, j != s)
    T'[i][s] = -T[i][s]                                   (i != r)
    T'[r][s] = d,  rest of row r unchanged,  then d = p

so every comparison stays exact (the division is known to be exact).
Bland's rule picks both the entering and the leaving variable by variable
index, which rules out cycling.

A pivot never writes into a row: every row it changes, the pivot row
included, is replaced by a new list.  So the constraint rows of one
unpivoted tableau can be shared by many solves, and with_objective starts
a fresh solve on them that only brings its own objective row.

The tie check (_optimum_is_unique) runs on the degenerate rows only, those
whose basic variable sits at zero, as an auxiliary LP in which every pivot
is degenerate.

The starting basis is the slack basis, so b >= 0 is required; every system
produced in this package satisfies it (the origin is feasible).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from . import dd
from .errors import NumericalFailure

MAX_PIVOTS = 100000


def _scaled_rows(A: Sequence[Sequence], b: Sequence):
    """(integer row, integer bound) pairs.  A rational row and its bound are
    scaled by one positive factor (dd.integerize), which changes neither the
    region nor Bland's pivot path; a system that is all Python ints is
    taken as it is."""
    if set(map(type, chain(b, chain.from_iterable(A)))) <= {int}:
        return zip(map(list, A), b)
    rows = (dd.integerize([*a, rhs]) for a, rhs in zip(A, b))
    return ((list(r[:-1]), r[-1]) for r in rows)


@dataclass(frozen=True)
class SimplexResult:
    objective: Fraction
    x: tuple[Fraction, ...]
    unique: bool  # True iff the optimal face is the single vertex x


class ExactSimplex:
    def __init__(self, A: Sequence[Sequence], b: Sequence, c: Sequence):
        self.n = n = len(c)
        self.m = len(A)
        # Condensed tableau: one column per nonbasic variable, then the rhs.
        # Last row = objective.  Variables 0..n-1 are structural, n..n+m-1
        # the slacks; the slack basis starts with the structurals nonbasic.
        rows = []
        for row, rhs in _scaled_rows(A, b):
            if len(row) != n:
                raise ValueError("constraint row has wrong length")
            if rhs < 0:
                raise ValueError("slack basis start requires b >= 0")
            row.append(rhs)
            rows.append(row)
        self._rows = tuple(rows)
        self._start(c)

    def _start(self, c: Sequence) -> None:
        """Objective row c over the unpivoted rows, at the slack basis."""
        [(obj, _)] = _scaled_rows([c], [0])
        obj.append(0)
        self.T: list[list[int]] = [*self._rows, obj]
        self.c = tuple(Fraction(x) for x in c)
        self.d = 1
        self.basis = list(range(self.n, self.n + self.m))
        self.nonbasic = list(range(self.n))

    def with_objective(self, c: Sequence) -> "ExactSimplex":
        """A fresh, unpivoted simplex on this one's constraint rows with
        objective c.  The rows are shared, not copied: no pivot of either
        instance writes into them."""
        if len(c) != self.n:
            raise ValueError("objective has wrong length")
        sx = object.__new__(ExactSimplex)
        sx.n, sx.m, sx._rows = self.n, self.m, self._rows
        sx._start(c)
        return sx

    def _pivot(self, r: int, s: int) -> None:
        """Exchange basis[r] with nonbasic[s] (a fraction-free Jordan step)."""
        T = self.T
        prow = T[r]
        piv = prow[s]
        if piv <= 0:
            raise NumericalFailure("nonpositive pivot")
        d = self.d
        for i in range(len(T)):
            if i == r:
                continue
            row = T[i]
            f = row[s]
            if f == 0:
                if piv != d:
                    T[i] = [x * piv // d for x in row]
                continue
            row = T[i] = [(x * piv - f * y) // d for x, y in zip(row, prow)]
            row[s] = -f
        # The leaving variable's column: d * e_r before the step, so the
        # update above reduces to -T[i][s] off the pivot row and d on it.
        # The pivot row is replaced, not written into: rows may be shared
        # with other instances (with_objective).
        prow = T[r] = prow.copy()
        prow[s] = d
        self.d = piv
        self.basis[r], self.nonbasic[s] = self.nonbasic[s], self.basis[r]

    def _run(self, max_pivots: int) -> bool:
        """Bland's-rule pivots until no reduced cost is negative.

        The entering variable is the one of smallest variable index with a
        negative reduced cost; the nonbasic columns are in exchange order,
        so that need not be the first such column.  The ratio test breaks
        ties by the smallest basic variable index.

        Returns True at an optimal basis and False on an unbounded improving
        ray.
        """
        T = self.T
        m, n = self.m, self.n
        basis, nonbasic = self.basis, self.nonbasic
        for _ in range(max_pivots):
            obj = T[m]
            s = -1
            for j in range(n):
                if obj[j] < 0 and (s < 0 or nonbasic[j] < nonbasic[s]):
                    s = j
            if s < 0:
                return True
            r = -1
            for i in range(m):
                t = T[i][s]
                if t <= 0:
                    continue
                if r < 0:
                    r = i
                    continue
                cmp = T[i][-1] * T[r][s] - T[r][-1] * t
                if cmp < 0 or (cmp == 0 and basis[i] < basis[r]):
                    r = i
            if r < 0:
                return False
            self._pivot(r, s)
        raise NumericalFailure("pivot limit hit")

    def solve(self, max_pivots: int = MAX_PIVOTS) -> SimplexResult:
        if not self._run(max_pivots):
            raise NumericalFailure("LP is unbounded; expected a boxed region")
        x = self._solution()
        return SimplexResult(
            objective=sum(ci * xi for ci, xi in zip(self.c, x)),
            x=x,
            unique=self._optimum_is_unique(),
        )

    def _solution(self) -> tuple[Fraction, ...]:
        vals = [Fraction(0)] * self.n
        for i, col in enumerate(self.basis):
            if col < self.n:
                vals[col] = Fraction(self.T[i][-1], self.d)
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
        """
        T = self.T
        obj = T[self.m]
        # Ordered by variable index, so the auxiliary LP and its pivots
        # depend on the optimal basis alone, not on the exchange order.
        zero_cols = sorted(
            (j for j in range(self.n) if obj[j] == 0), key=self.nonbasic.__getitem__
        )
        if not zero_cols:
            return True
        A = [[row[j] for j in zero_cols] for row in T[: self.m] if row[-1] == 0]
        return ExactSimplex(A, [0] * len(A), [-1] * len(zero_cols))._run(MAX_PIVOTS)


def solve_min(A: Sequence[Sequence], b: Sequence, c: Sequence) -> SimplexResult:
    """min c . x over {A x <= b, x >= 0}; requires b >= 0."""
    return ExactSimplex(A, b, c).solve()
