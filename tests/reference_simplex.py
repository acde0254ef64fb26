"""Reference simplexes kept as test oracles, a recorder of the pivots a
simplex makes, and dense_simplex, which feeds ExactSimplex dense rational
rows (the package itself builds only sparse integer rows).

CondensedSimplex is the condensed-tableau simplex that the core-row
ExactSimplex replaced: it stores every row of the condensed tableau (the
nonbasic columns and the rhs, m + 1 rows of n + 1 integers) and pivots all
of them.  ExactSimplex must reproduce its results and its whole pivot log,
tie check included.

FullTableauSimplex is the full-tableau simplex that the condensed one
replaced.  It stores a column for every variable, basic ones included
(each is d * e_r), and enters the first column with a negative reduced
cost.  Its main pivot path and its results are the reference the other
two must reproduce exactly.  Its tie check runs the auxiliary LP over all
rows, so it pivots differently from the degenerate-row check but must give
the same answer; all_rows_optimum_is_unique is that all-rows check on a
solved CondensedSimplex.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence

from conedec import dd
from conedec.errors import NumericalFailure
from conedec.simplex import MAX_PIVOTS, ExactSimplex, SimplexResult


def _scaled_rows(A: Sequence[Sequence], b: Sequence):
    """(integer row, integer bound) pairs: each rational row and its bound
    scaled by one positive factor (dd.integerize), which changes neither
    the region nor Bland's pivot path."""
    rows = (dd.integerize([*a, rhs]) for a, rhs in zip(A, b))
    return ((list(r[:-1]), r[-1]) for r in rows)


def dense_simplex(A: Sequence[Sequence], b: Sequence, c: Sequence) -> ExactSimplex:
    """ExactSimplex on dense rational rows A: min c . x over A x <= b, x >= 0,
    each row scaled to integers (_scaled_rows) and stored sparse."""
    rows, bs = [], []
    for row, rhs in _scaled_rows(A, b):
        if len(row) != len(c):
            raise ValueError("constraint row has wrong length")
        rows.append(tuple([(j, a) for j, a in enumerate(row) if a]))
        bs.append(rhs)
    return ExactSimplex(len(c), rows, bs, c)


class CondensedSimplex:
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

    def with_objective(self, c: Sequence) -> "CondensedSimplex":
        """A fresh, unpivoted simplex on this one's constraint rows with
        objective c.  The rows are shared, not copied: no pivot of either
        instance writes into them."""
        if len(c) != self.n:
            raise ValueError("objective has wrong length")
        sx = object.__new__(CondensedSimplex)
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
        return CondensedSimplex(A, [0] * len(A), [-1] * len(zero_cols))._run(MAX_PIVOTS)


class FullTableauSimplex:
    def __init__(self, A: Sequence[Sequence], b: Sequence, c: Sequence):
        self.n = n = len(c)
        self.m = m = len(A)
        # Tableau columns: n structural, m slacks, rhs.  Last row = objective.
        self.T: list[list[int]] = []
        zeros = [0] * m
        for i, (row, rhs) in enumerate(_scaled_rows(A, b)):
            if len(row) != n:
                raise ValueError("constraint row has wrong length")
            if rhs < 0:
                raise ValueError("slack basis start requires b >= 0")
            row += zeros
            row.append(rhs)
            row[n + i] = 1
            self.T.append(row)
        [(obj, _)] = _scaled_rows([c], [0])
        self.T.append(obj + [0] * (m + 1))
        self.c = tuple(Fraction(x) for x in c)
        self.d = 1
        self.basis = [n + i for i in range(m)]

    def _pivot(self, r: int, s: int) -> None:
        T = self.T
        piv = T[r][s]
        if piv <= 0:
            raise NumericalFailure("nonpositive pivot")
        d = self.d
        prow = T[r]
        for i in range(len(T)):
            if i == r:
                continue
            row = T[i]
            f = row[s]
            if f == 0:
                if piv != d:
                    T[i] = [x * piv // d for x in row]
                continue
            T[i] = [(x * piv - f * y) // d for x, y in zip(row, prow)]
        self.d = piv
        self.basis[r] = s

    def _run(self, max_pivots: int, stop_below_zero: bool = False) -> bool:
        T = self.T
        m, n = self.m, self.n
        basis = self.basis
        for _ in range(max_pivots):
            obj = T[m]
            if stop_below_zero and obj[-1] > 0:
                return False
            s = -1
            for j in range(n + m):
                if obj[j] < 0:
                    s = j
                    break
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
        T = self.T
        basic = set(self.basis)
        zero_cols = [
            j
            for j in range(self.n + self.m)
            if j not in basic and T[self.m][j] == 0
        ]
        if not zero_cols:
            return True
        A = [[T[i][j] for j in zero_cols] for i in range(self.m)]
        b = [T[i][-1] for i in range(self.m)]
        return FullTableauSimplex(A, b, [-1] * len(zero_cols))._run(
            MAX_PIVOTS, stop_below_zero=True
        )


def all_rows_optimum_is_unique(sx: CondensedSimplex) -> bool:
    """The tie check as it was before it kept only the degenerate rows, at
    the optimal basis of a solved CondensedSimplex: the auxiliary LP
    min -sum(u) over W u <= rhs, u >= 0 takes every row with its rhs, and
    the optimum is unique iff that LP's optimal value is 0.  (The original
    stopped at the first pivot that took the value below 0; the answer is
    the same.)"""
    T, m = sx.T, sx.m
    zero_cols = sorted(
        (j for j in range(sx.n) if T[m][j] == 0), key=sx.nonbasic.__getitem__
    )
    if not zero_cols:
        return True
    aux = CondensedSimplex(
        [[T[i][j] for j in zero_cols] for i in range(m)],
        [T[i][-1] for i in range(m)],
        [-1] * len(zero_cols),
    )
    return aux._run(MAX_PIVOTS) and aux.T[aux.m][-1] == 0


def solve_pivots(log):
    """The entries of a pivot_log outside the tie check."""
    return [entry for entry in log if entry[0] == "solve"]


@contextmanager
def pivot_log(cls, entering_variable):
    """Record every pivot that instances of cls make, as (phase, leaving
    variable, entering variable); phase is "tie" inside the tie check and
    "solve" otherwise.  entering_variable(simplex, s) maps the pivot
    column s to its variable index."""
    log: list[tuple[str, int, int]] = []
    phase = ["solve"]
    pivot, tie_check = cls._pivot, cls._optimum_is_unique

    def logged_pivot(self, r, s):
        log.append((phase[-1], self.basis[r], entering_variable(self, s)))
        pivot(self, r, s)

    def logged_tie_check(self):
        phase.append("tie")
        try:
            return tie_check(self)
        finally:
            phase.pop()

    cls._pivot, cls._optimum_is_unique = logged_pivot, logged_tie_check
    try:
        yield log
    finally:
        cls._pivot, cls._optimum_is_unique = pivot, tie_check


@contextmanager
def both_pivot_logs():
    """pivot_log of ExactSimplex, of CondensedSimplex and of
    FullTableauSimplex, entered together."""
    with pivot_log(ExactSimplex, lambda sx, s: sx.nonbasic[s]) as core:
        with pivot_log(CondensedSimplex, lambda sx, s: sx.nonbasic[s]) as condensed:
            with pivot_log(FullTableauSimplex, lambda sx, s: s) as full:
                yield core, condensed, full
