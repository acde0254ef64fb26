"""Reference answers that share no code with conedec.

Every check here is written from the definitions, on plain integers and
fractions.Fraction:

* codewords come from our own GF(2) elimination of the rows;
* ML decoding is brute force over that codeword list;
* relaxed-polytope membership uses the odd-set separation rule of
  Feldman, Wainwright and Karger instead of expanding the odd subsets;
* fundamental-cone membership is the per-row test sum(v) >= 2 max(v) over
  the row's support.

The matrices themselves are inputs: they arrive as lists of row bitmasks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

# conedec documents that LLRs are rationalized with this denominator cap
# before they reach the exact simplex; the LP objective is reported against
# the rationalized vector, so the reference must use the same rounding.
LLR_DENOMINATOR_CAP = 10**6


def supports(rows: Sequence[int], n: int) -> list[tuple[int, ...]]:
    return [tuple(i for i in range(n) if (r >> i) & 1) for r in rows]


def bits_of(word: int, n: int) -> tuple[int, ...]:
    return tuple((word >> i) & 1 for i in range(n))


def word_of(bits: Sequence[int]) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


def syndrome_is_zero(rows: Sequence[int], word: int) -> bool:
    return all((r & word).bit_count() % 2 == 0 for r in rows)


def rotate(word: int, n: int, s: int) -> int:
    """Cyclic right shift of an n-bit word by s positions."""
    s %= n
    return ((word << s) | (word >> (n - s))) & ((1 << n) - 1)


def row_reduce(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Reduced row echelon form over GF(2): (pivot column, row) pairs."""
    reduced: list[tuple[int, int]] = []
    for r in rows:
        for col, p in reduced:
            if (r >> col) & 1:
                r ^= p
        if r:
            col = (r & -r).bit_length() - 1
            reduced = [(c, p ^ r if (p >> col) & 1 else p) for c, p in reduced]
            reduced.append((col, r))
    return reduced


def codewords(rows: Sequence[int], n: int) -> list[int]:
    """Every word of the GF(2) nullspace of the rows, as bitmasks."""
    reduced = row_reduce(rows)
    pivots = {c for c, _ in reduced}
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        w = 1 << f
        for c, p in reduced:
            if (p >> f) & 1:
                w |= 1 << c
        basis.append(w)
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return sorted(words)


def rationalize(gamma: Sequence[float]) -> tuple[Fraction, ...]:
    return tuple(Fraction(x).limit_denominator(LLR_DENOMINATOR_CAP) for x in gamma)


def bsc_llrs(error: Sequence[int], p: float) -> list[float]:
    """Log-likelihood ratios of a received word over a BSC(p)."""
    g = math.log((1 - p) / p)
    return [-g if b else g for b in error]


class MLDecoder:
    """Brute-force maximum-likelihood decoding over a fixed codeword list.

    Ties break to the lexicographically smallest coordinate tuple, which is
    the rule conedec documents for its own ml_decode.
    """

    def __init__(self, words: Sequence[int], n: int):
        self.words = [bits_of(w, n) for w in words]

    def decode(self, gamma: Sequence[Fraction]) -> tuple[Fraction, tuple[int, ...]]:
        den = math.lcm(*(g.denominator for g in gamma))
        scaled = [int(g * den) for g in gamma]
        best = None
        for bits in self.words:
            key = (sum(s for s, b in zip(scaled, bits) if b), bits)
            if best is None or key < best:
                best = key
        return Fraction(best[0], den), best[1]


def polytope_violation(sups: Sequence[Sequence[int]], x: Sequence[Fraction]):
    """The first violated inequality of the relaxed polytope, or None.

    For a row with support N the odd-set inequalities read
    sum_{S}(1 - x_i) + sum_{N \\ S} x_i >= 1 for every odd S in N.  The
    smallest left side puts i in S iff x_i > 1/2 and, if that S is even,
    moves the coordinate closest to 1/2 across; x is in the polytope iff
    that minimum is >= 1 on every row and 0 <= x <= 1.
    """
    for i, xi in enumerate(x):
        if xi < 0 or xi > 1:
            return ("box", i)
    half = Fraction(1, 2)
    for j, sup in enumerate(sups):
        if not sup:
            continue
        S = [i for i in sup if x[i] > half]
        total = sum(min(x[i], 1 - x[i]) for i in sup)
        if len(S) % 2 == 0:
            k = min(sup, key=lambda i: abs(1 - 2 * x[i]))
            total += abs(1 - 2 * x[k])
            S = sorted(set(S) ^ {k})
        if total < 1:
            return ("odd-set", j, tuple(S))
    return None


def odd_set_slack(sup: Sequence[int], S: Sequence[int], x: Sequence[Fraction]) -> Fraction:
    """|S| - 1 - (sum_S x - sum_{N \\ S} x); negative means violated."""
    inside = set(S)
    lhs = sum(x[i] if i in inside else -x[i] for i in sup)
    return len(inside) - 1 - lhs


def cone_violation(sups: Sequence[Sequence[int]], v: Sequence[Fraction]):
    """The first violated fundamental-cone inequality, or None."""
    for i, vi in enumerate(v):
        if vi < 0:
            return ("nonneg", i)
    for j, sup in enumerate(sups):
        if sup:
            top = max(sup, key=lambda i: v[i])
            if sum(v[i] for i in sup) < 2 * v[top]:
                return ("row", j, top)
    return None


def is_vertex(sups: Sequence[Sequence[int]], x: Sequence[Fraction]) -> bool:
    """Whether x is a vertex of the relaxed polytope: a member at which the
    tight inequalities have full rank.  Expands odd sets, so it is meant
    for rows of small weight."""
    n = len(x)
    if polytope_violation(sups, x) is not None:
        return False
    tight = []
    for i, xi in enumerate(x):
        if xi in (0, 1):
            tight.append([Fraction(int(t == i)) for t in range(n)])
    for sup in sups:
        for size in range(1, len(sup) + 1, 2):
            for S in combinations(sup, size):
                if odd_set_slack(sup, S, x) == 0:
                    row = [Fraction(0)] * n
                    for i in sup:
                        row[i] = Fraction(1 if i in S else -1)
                    tight.append(row)
    return rank(tight) == n


def rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][c] != 0:
                f = rows[i][c] / rows[rk][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def box_pseudocodewords(rows: Sequence[int], n: int, bound: int) -> set[tuple[int, ...]]:
    """Every point of {0..bound}^n in the cone with even parity on each row,
    by sweeping the whole box."""
    sups = supports(rows, n)
    found = set()
    for idx in range((bound + 1) ** n):
        v = []
        for _ in range(n):
            idx, d = divmod(idx, bound + 1)
            v.append(d)
        if any(sum(v[i] for i in sup) % 2 for sup in sups):
            continue
        if cone_violation(sups, v) is None:
            found.add(tuple(v))
    return found
