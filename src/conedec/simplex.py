"""Exact simplex over the rationals for desk-scale LPs.

Solves  min c . x  subject to  A x <= b, x >= 0  with integer pivoting:
the tableau holds integers T = d * R where R is the usual rational tableau
and d > 0 is the previous pivot element, so every comparison and the
fraction-free update

    T'[i][j] = (T[i][j] * T[r][s] - T[i][s] * T[r][j]) // d

stay exact (the division is known to be exact).  Bland's rule picks both
the entering and the leaving variable, which rules out cycling.

The starting basis is the slack basis, so b >= 0 is required; every system
produced in this package satisfies it (the origin is feasible).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Sequence

from .errors import NumericalFailure

MAX_PIVOTS = 100000


def _scale_row(row: Sequence, rhs) -> tuple[list[int], int]:
    fr = [Fraction(x) for x in row] + [Fraction(rhs)]
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fr]
    return ints[:-1], ints[-1]


def _scaled_rows(A: Sequence[Sequence], b: Sequence):
    """(integer row, integer bound) pairs; a system that is all Python ints
    already skips the Fraction round trip."""
    if set(map(type, chain(b, chain.from_iterable(A)))) <= {int}:
        return zip(map(list, A), b)
    return map(_scale_row, A, b)


@dataclass(frozen=True)
class SimplexResult:
    objective: Fraction
    x: tuple[Fraction, ...]
    unique: bool  # True iff the optimal face is the single vertex x


class ExactSimplex:
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
        """Bland's-rule pivots until no reduced cost is negative.

        Returns True at an optimal basis and False on an unbounded improving
        ray; with stop_below_zero, also False as soon as the objective value
        drops below zero.
        """
        T = self.T
        m, n = self.m, self.n
        basis = self.basis
        for _ in range(max_pivots):
            obj = T[m]
            if stop_below_zero and obj[-1] > 0:  # obj[-1] is -d * (c . x)
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
        """Whether the optimal face is a single point.

        At an optimal basis, any feasible point with the optimal objective
        must keep every nonbasic variable with a positive reduced cost at
        zero; dropping those columns leaves the optimal face exactly.  The
        face contains a second point iff some combination u >= 0 of the
        remaining nonbasic columns satisfies W u <= rhs with u != 0, which
        is itself a tiny LP started at u = 0.  This makes the answer a
        property of the geometry, not of the pivot path that got here.
        """
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
        # The auxiliary LP starts at u = 0 with objective 0; the face has a
        # second point iff some pivot drives -sum(u) below zero or along an
        # unbounded ray.
        return ExactSimplex(A, b, [-1] * len(zero_cols))._run(
            MAX_PIVOTS, stop_below_zero=True
        )


def solve_min(A: Sequence[Sequence], b: Sequence, c: Sequence) -> SimplexResult:
    """min c . x over {A x <= b, x >= 0}; requires b >= 0."""
    return ExactSimplex(A, b, c).solve()
