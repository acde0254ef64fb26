"""Exact simplex over the rationals for desk-scale LPs.

Solves  min c . x  subject to  A x <= b, x >= 0  by fraction-free integer
pivoting.  Variables 0..n-1 are structural and n..n+m-1 the slacks.
Bland's rule picks both the entering and the leaving variable by variable
index, which rules out cycling.  The starting basis is the slack basis, so
b >= 0 is required; every system produced in this package satisfies it
(the origin is feasible).  The constructor takes one input format: the
constraint rows sparse and integer, as the decode LP compiles them from H,
and an integer objective c, as lpdecode scales the rationalized LLRs to
one; a rational objective is scaled to integers by its caller.  No Fraction
is made before the result: its objective c . x is one
Fraction(sum_j c_j * core[j][-1], d), and its x holds the module's one
Fraction object for each 0 and each 1 entry.

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
joins the core and a leaving structural's row leaves it.  A pivot thus
costs O(n^2) plus its ratio test, not O(m n), and it takes exactly the
pivots of the full condensed tableau.

The decode LPs are very degenerate, and every rhs is >= 0, so a ratio
test mostly ends at a row of rhs 0.  One predicate, the origin
(_at_origin: every basic structural sits at zero, so x = 0 and
rhs_k = d * b_k), picks the cheap path of both the ratio test and the tie
check.  The ratio test takes three steps.  A basic structural at zero
with a positive entry in the entering column wins first.  At the origin
the rows of rhs 0 are the rows of b_k = 0, so the entering column is
built over those rows only, through the column index restricted to them
(recorded once): such a pivot costs the rows it touches, not O(m).
Otherwise the general pass builds the entering column through the whole
column index (only the entering structural's own column and the columns
of basic structurals with a nonzero in it contribute) and compares the
ratios.  At the origin its candidates are all slack rows, and b gives
their ratios.  Away from it one pass scales b and subtracts the columns
of the basic structurals off zero: O(m) plus the columns it touches.  On
the decode LPs that pass is cheaper than summing the support of each row
with a positive entry.  So an rhs pass runs only away from the origin.

The tie check (_optimum_is_unique) is an auxiliary LP in which every pivot
is degenerate, over the zero-reduced-cost columns u and the binding
degenerate rows: those whose basic variable sits at zero and that have a
positive entry over u.  Its feasible set is the cone {u >= 0 : W_D u <= 0}
of the degenerate rows D, and a row of D with no positive entry holds for
every u >= 0, so leaving it out keeps the cone, and the answer, unchanged.
On the decode LPs most degenerate rows are such rows.  The binding rows
are built sparse in basis order, with their column index, in one pass.
At the origin, the degenerate rows are the basic structurals and the
basic slacks of the rows of b_k = 0, and the slack rows' entries over u
are summed through the restricted column index, over the rows those
columns touch.  Away from it one rhs pass finds the degenerate rows, and
their entries are derived row by row.

Two answers are fixed by the basis alone, whatever c and the pivot path.
The condensed tableau is fixed by the basis up to the order of its
columns and the scale d > 0 (above).  Bland's ratio test on the column of
entering variable e compares rhs_k / T_k[e] over the rows with a positive
entry and breaks ties by the smallest basic variable; neither a column
order nor a positive scale changes those ratios or that variable.  So the
leaving variable is fixed by the basis and e (its position in basis is
not: positions follow the exchange order).  The tie check's answer is
fixed by the optimal basis and the nonbasic variables of zero reduced
cost (the columns u): which rows are degenerate is fixed by the basis and
b, and neither a row order, a column order nor a positive scale changes
whether the cone {u >= 0 : W_D u <= 0} is {0}.

So solve takes an optional mapping, memo, that holds both answers.  The
basis is an int, _basis_bits, with bit v set iff variable v is basic: the
slack basis's is part of the shared start, and _pivot XORs in the two
variables it exchanges.  Before each ratio test _run looks up
(_basis_bits, e); a key met before gives the leaving variable (-1 for an
unbounded column), whose position _where holds, with no _leaving.  At the
optimum solve looks up _tie_key(), (_basis_bits, ~zero) with zero the
bits of the zero-reduced-cost variables; a key met before answers without
_optimum_is_unique.  A ratio key ends in a variable index >= 0 and a tie
key in ~zero < 0, so the two kinds never share a key.  _pivot runs either
way, with its checks.  The mapping must serve one constraint system (rows
and b) only; lpdecode keeps one per compiled system.  Without it, every
solve runs every ratio test and the tie check.  The tie check's
auxiliary LP, a system of its own, never uses it.

Each instance pivots its own basis, nonbasic and _where lists.
with_objective copies them from tuples built once per constraint system:
for [15,11]'s 542 variables a copy takes about 3 us where building them
again took 17 us (CPython 3.11).

solve logs one DEBUG line: rows, solve pivots, the ratio tests whose
leaving variable came from the memo, tie-check pivots, the binding rows
the tie check took, basic structurals at the optimum, and whether the tie
answer came from the memo.  A tie memo hit takes no tie-check pivot and
no binding row.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from itertools import chain
from typing import MutableMapping, Sequence

from .errors import NumericalFailure
from .record import record

logger = logging.getLogger(__name__)

MAX_PIVOTS = 100000

# Every x of every result holds these two objects for its 0 and 1 entries.
_ZERO, _ONE = Fraction(0), Fraction(1)


@record
class SimplexResult:
    """An optimal vertex x, its objective c . x, and whether x is the whole
    optimal face."""

    objective: Fraction  # c . x
    x: tuple[Fraction, ...]
    unique: bool  # True iff the optimal face is the single vertex x


class ExactSimplex:
    def __init__(self, n: int, rows: Sequence, b: Sequence[int], c: Sequence[int]):
        """min c . x over n structurals and the sparse integer rows: rows[k]
        is a tuple of (j, a_kj) pairs, with distinct int j in range(n) and
        int a_kj != 0, and one int rhs b[k] >= 0 per row.  The objective c
        is n ints.

        Builds the column index from the rows: row k's columns share one
        (k, a) entry per distinct coefficient a, so an odd-set row has just
        (k, 1) and (k, -1)."""
        if len(b) != len(rows):
            raise ValueError(f"{len(b)} rhs for {len(rows)} rows")
        columns = set(range(n))
        for k, pairs in enumerate(rows):
            js = {j for j, _ in pairs}
            if (len(js) != len(pairs) or not js <= columns
                    or not all(isinstance(j, int) and isinstance(a, int) and a for j, a in pairs)):
                raise ValueError(
                    f"row {k}: columns must be distinct ints in range({n}), values nonzero ints"
                )
            if not isinstance(b[k], int) or b[k] < 0:
                raise ValueError(f"row {k}: the slack basis start requires an int rhs >= 0")
        cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for k, pairs in enumerate(rows):
            entry: dict[int, tuple[int, int]] = {}
            for j, a in pairs:
                cols[j].append(entry.setdefault(a, (k, a)))
        zero_cols = tuple([tuple([e for e in col if not b[e[0]]]) for col in cols])
        self._at_slack_basis(tuple(rows), tuple(b), tuple(map(tuple, cols)), zero_cols, c, self)

    @staticmethod
    def _at_slack_basis(rows: tuple, b: tuple, cols: tuple, zero_cols: tuple, c: Sequence[int],
                        sx: "ExactSimplex | None" = None,
                        start: "tuple[tuple, tuple, tuple] | None" = None) -> "ExactSimplex":
        """sx, or else a new instance that skips __init__'s checks, at the
        slack basis with the integer objective c, over the sparse rows with
        their rhs b, their column index cols (one column per structural)
        and that index restricted to the rows of b_k = 0.  These four are
        kept, not copied: no pivot writes into them.  start is the slack
        basis's (basis, nonbasic, _where) as tuples, built here when not
        given; each instance pivots its own list copies."""
        n, m = len(cols), len(rows)
        if len(c) != n:
            raise ValueError("objective has wrong length")
        if set(map(type, c)) - {int}:
            raise ValueError("objective entries must be ints")
        if sx is None:
            sx = object.__new__(ExactSimplex)
        sx.n, sx.m = n, m
        sx._rows, sx._b, sx._cols, sx._zero_cols = rows, b, cols, zero_cols
        sx.c = c = tuple(c)
        sx.obj = [*c, 0]
        sx.d = 1
        if start is None:
            # _where: position in basis of a basic variable, ~column of a
            # nonbasic one.  The int has bit v set iff variable v is basic.
            start = (tuple(range(n, n + m)), tuple(range(n)),
                     tuple([~j for j in range(n)] + list(range(m))), ((1 << m) - 1) << n)
        sx._start = start
        sx.basis, sx.nonbasic, sx._where = map(list, start[:3])
        sx._basis_bits = start[3]
        sx.core = {}
        sx.pivots = 0
        sx._memo_ratio_tests = sx._tie_rows = sx._tie_pivots = 0
        return sx

    def with_objective(self, c: Sequence[int]) -> "ExactSimplex":
        """A fresh simplex at the slack basis on this one's constraint rows
        with the integer objective c.  The sparse rows and the column
        indexes are shared, not copied, and the slack basis is copied from
        this one's (O(n + m) list copies, no rebuild)."""
        return self._at_slack_basis(self._rows, self._b, self._cols, self._zero_cols, c,
                                    start=self._start)

    def _slack_rhs(self) -> list[int]:
        """rhs_k of every slack row k, as if its slack were basic.

        Summed by columns: only basic structurals off zero contribute."""
        d, cols = self.d, self._cols
        rhs = [d * b for b in self._b]
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
        self._basis_bits ^= 1 << entering | 1 << leaving
        self.pivots += 1

    def _leaving(self, s: int) -> int:
        """Bland's ratio test on column s: the position of the leaving
        variable, or -1 if no entry is positive.  Ties in the ratio go to
        the smallest basic variable index.

        Every rhs is >= 0, so a positive entry in a row of rhs 0 wins
        unless a smaller basic variable has one too.  Three steps:
          1. A basic structural at zero with a positive entry wins: the
             structurals have the smallest variable indices.
          2. At the origin (_at_origin), rhs_k = d * b_k, so the slack rows
             of rhs 0 are the rows of b_k = 0: column s is built over those
             rows only, and the smallest one with a positive entry wins.
          3. The general pass compares the ratios of every row with a
             positive entry.  At the origin these are all slack rows, with
             rhs_k = d * b_k, so b gives their ratios; away from it one
             _slack_rhs pass gives their rhs.
        """
        n, core, where = self.n, self.core, self._where
        at_zero = [j for j, row in core.items() if row[s] > 0 and not row[-1]]
        if at_zero:
            return where[min(at_zero)]
        origin = self._at_origin()
        if origin:
            col = self._column(s, self._zero_cols)
            ks = [k for k, t in col.items() if t > 0 and where[n + k] >= 0]
            if ks:
                return where[n + min(ks)]
        # (rhs, entry, basic variable) with a positive entry
        cands = [(row[-1], row[s], j) for j, row in core.items() if row[s] > 0]
        col = self._column(s, self._cols)
        slack = [(k, t) for k, t in col.items() if t > 0 and where[n + k] >= 0]
        if slack:
            rhs = self._b if origin else self._slack_rhs()
            cands += [(rhs[k], t, n + k) for k, t in slack]
        if not cands:
            return -1
        b_rhs, b_t, b_var = cands[0]
        for rhs, t, var in cands:
            cmp = rhs * b_t - b_rhs * t
            if cmp < 0 or (cmp == 0 and var < b_var):
                b_rhs, b_t, b_var = rhs, t, var
        return where[b_var]

    def _column(self, s: int, cols: tuple) -> dict[int, int]:
        """Column s over the slack rows that the column index cols lists
        (the whole index or its rows of b_k = 0): T_k[s] keyed by k, d times
        the entering structural's own column less a_kj * core[j][s] over
        the basic structurals j with core[j][s] != 0."""
        d, entering = self.d, self.nonbasic[s]
        col = {} if entering >= self.n else {k: d * a for k, a in cols[entering]}
        get = col.get
        for j, row in self.core.items():
            t = row[s]
            if t:
                for k, a in cols[j]:
                    col[k] = get(k, 0) - a * t
        return col

    def _run(self, max_pivots: int, memo: "MutableMapping[tuple, int | bool] | None" = None) -> bool:
        """Bland's-rule pivots until no reduced cost is negative.

        The entering variable is the one of smallest variable index with a
        negative reduced cost; the nonbasic columns are in exchange order,
        so that need not be the first such column.  memo, if given, holds
        the leaving variable of each ratio test (-1 for no positive entry)
        under (_basis_bits, entering variable): a key met before skips
        _leaving, and the position is read off _where.

        Returns True at an optimal basis and False on an unbounded improving
        ray.
        """
        n, nonbasic, where = self.n, self.nonbasic, self._where
        for _ in range(max_pivots):
            obj = self.obj
            s = -1
            for j in range(n):
                if obj[j] < 0 and (s < 0 or nonbasic[j] < nonbasic[s]):
                    s = j
            if s < 0:
                return True
            if memo is None:
                r = self._leaving(s)
            else:
                key = (self._basis_bits, nonbasic[s])
                v = memo.get(key)
                if v is None:
                    r = self._leaving(s)
                    memo[key] = self.basis[r] if r >= 0 else -1
                else:
                    r = where[v] if v >= 0 else -1
                    self._memo_ratio_tests += 1
            if r < 0:
                return False
            self._pivot(r, s)
        raise NumericalFailure("pivot limit hit")

    def solve(self, memo: "MutableMapping[tuple, int | bool] | None" = None) -> SimplexResult:
        """Pivot to an optimal basis and run the tie check there.

        memo, if given, memoises two kinds of answer, both fixed by the
        basis: the leaving variable of each ratio test (see _run), and the
        tie check's answer under _tie_key().  A key met before answers
        without _leaving or _optimum_is_unique, and a new key stores its
        answer.  Its keys are those of one constraint system (rows and b),
        so one mapping must serve only the instances that with_objective
        makes of one system.  Without it, every solve runs every ratio test
        and the tie check."""
        if not self._run(MAX_PIVOTS, memo):
            raise NumericalFailure("LP is unbounded; expected a boxed region")
        x = self._solution()
        key = None if memo is None else self._tie_key()
        unique = None if key is None else memo.get(key)
        hit = unique is not None
        if not hit:
            unique = self._optimum_is_unique()
            if key is not None:
                memo[key] = unique
        # Only basic structurals can be nonzero, x_j = core[j][-1] / d.
        c = self.c
        dot = sum([c[j] * row[-1] for j, row in self.core.items()])
        res = SimplexResult(objective=Fraction(dot, self.d), x=x, unique=unique)
        logger.debug(
            "solve: %d rows, %d solve pivots, %d ratio tests from the memo, "
            "%d tie-check pivots, %d binding rows, %d basic structurals, tie answer %s",
            self.m, self.pivots, self._memo_ratio_tests, self._tie_pivots, self._tie_rows,
            len(self.core), "from the memo" if hit else "checked",
        )
        return res

    def _tie_key(self) -> tuple | None:
        """The tie check's memo key at this optimal basis, or None when no
        reduced cost is zero (the optimum is then unique, with no check).

        (_basis_bits, ~zero), where zero has bit v set iff v is a nonbasic
        variable of zero reduced cost.  zero is nonzero, so ~zero < 0,
        while a ratio test's key (see _run) ends in a variable index >= 0:
        the two kinds never share a key."""
        obj, nonbasic = self.obj, self.nonbasic
        zero = 0
        for l in range(self.n):
            if obj[l] == 0:
                zero |= 1 << nonbasic[l]
        return (self._basis_bits, ~zero) if zero else None

    def _solution(self) -> tuple[Fraction, ...]:
        d, x = self.d, [_ZERO] * self.n
        for j, row in self.core.items():
            v = row[-1]
            if v:
                x[j] = _ONE if v == d else Fraction(v, d)
        return tuple(x)

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

        Only the binding rows of W_D enter it, those with a positive entry.
        A row with no positive entry holds for every u >= 0, so dropping it
        leaves the cone {u >= 0 : W_D u <= 0}, and so the answer, unchanged.
        The binding rows are the ones the tie check reports taking; it
        takes none when no reduced cost is zero.
        """
        # Ordered by variable index, so the auxiliary LP and its pivots
        # depend on the optimal basis alone, not on the exchange order.
        obj, n = self.obj, self.n
        zero_cols = sorted([l for l in range(n) if obj[l] == 0], key=self.nonbasic.__getitem__)
        if not zero_cols:
            return True
        z = len(zero_cols)
        rows, cols = self._binding_rows(zero_cols)
        # The rows meet __init__'s input contract by construction.  Every
        # rhs is 0, so the column index restricted to the rows of b_k = 0
        # is the column index.
        aux = self._at_slack_basis(rows, (0,) * len(rows), cols, cols, [-1] * z)
        unique = aux._run(MAX_PIVOTS)
        self._tie_rows, self._tie_pivots = len(rows), aux.pivots
        return unique

    def _binding_rows(self, zero_cols: list[int]) -> tuple[tuple, tuple]:
        """The degenerate rows with a positive entry over the columns
        zero_cols, sparse and in basis order, and the column index built
        from them (column t lists its (row, entry) pairs in row order).

        Over zero_cols, slack row k is -sum_j a_kj * part[j] over the
        support of a_k.  part[j] is sparse, as (t, value) pairs: -d in
        column t for a nonbasic structural j at zero_cols[t], core[j] over
        zero_cols for a basic one (its own row when it is degenerate),
        nothing otherwise.
        """
        n, d, core, nonbasic, where = self.n, self.d, self.core, self.nonbasic, self._where
        z = len(zero_cols)
        part: list = [()] * n
        for t, l in enumerate(zero_cols):
            if nonbasic[l] < n:
                part[nonbasic[l]] = ((t, -d),)
        for j, row in core.items():
            part[j] = tuple([(t, row[l]) for t, l in enumerate(zero_cols) if row[l]])
        taken = {}  # basis position -> the row there, if it binds
        if self._at_origin():
            # Every basic structural is degenerate, and the degenerate slack
            # rows are rows of b_k = 0: summed by columns, over the rows of
            # b_k = 0 that the columns with a part touch.
            for j in core:
                if any(y > 0 for _, y in part[j]):
                    taken[where[j]] = part[j]
            w: dict[int, list[int]] = {}  # slack row k over zero_cols, dense
            zcols = self._zero_cols
            for j, pj in enumerate(part):
                if pj:
                    for k, a in zcols[j]:
                        wk = w.get(k) or w.setdefault(k, [0] * z)
                        for t, y in pj:
                            wk[t] -= a * y
            for k, wk in w.items():
                if max(wk) > 0 and where[n + k] >= 0:
                    taken[where[n + k]] = _sparse(wk)
        else:
            # One rhs pass finds the degenerate rows, summed row by row.
            rhs, rows = self._slack_rhs(), self._rows
            for r, v in enumerate(self.basis):
                if v < n:
                    if not core[v][-1] and any(y > 0 for _, y in part[v]):
                        taken[r] = part[v]
                elif not rhs[v - n]:
                    wk = [0] * z
                    for j, a in rows[v - n]:
                        for t, y in part[j]:
                            wk[t] -= a * y
                    if max(wk) > 0:
                        taken[r] = _sparse(wk)
        A = tuple([taken[r] for r in sorted(taken)])
        cols: list[list[tuple[int, int]]] = [[] for _ in range(z)]
        for k, row in enumerate(A):
            for t, x in row:
                cols[t].append((k, x))
        return A, tuple(map(tuple, cols))

    def _at_origin(self) -> bool:
        """Whether every basic structural sits at zero, so that x is the
        origin and each slack row has rhs_k = d * b_k."""
        return not any(row[-1] for row in self.core.values())


def _sparse(row: list[int]) -> tuple:
    """The (t, x) pairs of the nonzero entries of a dense row."""
    return tuple([(t, x) for t, x in enumerate(row) if x])
