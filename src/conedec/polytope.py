"""The relaxed polytope of a parity-check matrix and its vertex set.

Each row h of H contributes the halfspace description of the convex hull
of the even-weight patterns on its support: for every odd-cardinality
subset S of Supp(h),

    sum_{i in S} x_i  -  sum_{i in Supp(h) \\ S} x_i  <=  |S| - 1,

intersected with the box [0,1]^n.  relaxed_rows generates the rows
x_i <= 1 and the odd-set rows from H in sparse form; the decode LP is
compiled from them directly, since the simplex keeps x >= 0 itself.  A
PolytopeSystem is a record of H: its dense rows, the lower box rows
-x_i <= 0 and then relaxed_rows(H), are made from H when first read, for
double description and membership, and no constructor takes rows.
Vertices are enumerated exactly by running double description on the
homogenization (x, t), t >= 0, and scaling the resulting rays to t = 1.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from typing import Sequence

from . import dd
from .errors import BoundExceeded
from .gf2 import BinaryMatrix, as_fraction_vector, enumerate_codewords, mat_vec_mod2
from .record import record

VERTEX_DIM_CAP = 16  # dimension bound for vertex enumeration
ROW_WEIGHT_CAP = 20  # each row of weight w expands to 2^(w-1) inequalities


@record
class PolytopeSystem:
    """The relaxed polytope of H, {x : a . x <= b for all rows (a, b)}.

    The rows are made from H the first time they are read, as primitive
    integer (coeffs, bound) pairs: the lower box rows -x_i <= 0, which
    double description takes as its seed, then relaxed_rows(H) made dense.
    A check above ROW_WEIGHT_CAP raises BoundExceeded when the system is
    made.  Equality and hash follow H.  contains(x) tests every row in exact
    Fraction arithmetic.
    """

    H: BinaryMatrix

    def __post_init__(self):
        _check_row_weights(self.H)

    @functools.cached_property
    def inequalities(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        n = self.H.cols
        rows = []
        lower_box = ((((i, -1),), 0) for i in range(n))
        for pairs, bound in chain(lower_box, relaxed_rows(self.H)):
            a = [0] * n
            for i, x in pairs:
                a[i] = x
            rows.append((tuple(a), bound))
        return tuple(rows)

    @property
    def dim(self) -> int:
        return self.H.cols

    def contains(self, x: Sequence) -> bool:
        xx = as_fraction_vector(x)
        if len(xx) != self.dim:
            raise ValueError(f"length {len(xx)} != dim {self.dim}")
        return all(
            sum(a_i * x_i for a_i, x_i in zip(a, xx)) <= b
            for a, b in self.inequalities
        )


@record
class VertexSet:
    """Exact vertices, each tagged integral (all coordinates in {0,1})."""

    dim: int
    vertices: tuple[tuple[Fraction, ...], ...]

    @property
    def integral(self) -> tuple[bool, ...]:
        return tuple(all(x.denominator == 1 for x in v) for v in self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def relaxed_rows(H: BinaryMatrix):
    """The rows of the relaxed polytope that the decode LP compiles, sparse:
    (pairs, bound) with pairs the (i, a_i) of the nonzero a_i, in column
    order.

    The box rows x_i <= 1 come first, then each check's odd sets by size,
    in combinations order; Bland's rule follows this order.  The lower box
    rows -x_i <= 0 are left to the simplex, which keeps x >= 0 itself, and
    to PolytopeSystem.  Every row is primitive (entries -1 and 1 on its
    support) and none repeats.  A check above ROW_WEIGHT_CAP raises
    BoundExceeded before the first row.
    """
    _check_row_weights(H)
    minus = [(i, -1) for i in range(H.cols)]
    plus = [(i, 1) for i in range(H.cols)]
    for i in range(H.cols):
        yield (plus[i],), 1
    # A row's pairs cover its check's support, so the rows of distinct
    # supports differ and a repeated check's rows are exactly the duplicates.
    for bits in dict.fromkeys(H.row_bits):
        sup = [i for i in range(H.cols) if bits >> i & 1]
        base = [minus[i] for i in sup]
        for size in range(1, len(sup) + 1, 2):
            for S in combinations(range(len(sup)), size):
                pairs = base.copy()
                for t in S:
                    pairs[t] = plus[sup[t]]
                yield tuple(pairs), size - 1


def _check_row_weights(H: BinaryMatrix) -> None:
    for j, bits in enumerate(H.row_bits):
        if bits.bit_count() > ROW_WEIGHT_CAP:
            raise BoundExceeded(
                f"row {j} has weight {bits.bit_count()}, above the expansion cap {ROW_WEIGHT_CAP}"
            )


def build_relaxed_polytope(H: BinaryMatrix) -> PolytopeSystem:
    return PolytopeSystem(H)


def _check_vertex_dim(n: int) -> None:
    if n > VERTEX_DIM_CAP:
        raise BoundExceeded(f"dimension {n} exceeds vertex enumeration cap {VERTEX_DIM_CAP}")


def enumerate_vertices(P: PolytopeSystem) -> VertexSet:
    """Complete vertex set via double description on the homogenization."""
    n = P.dim
    _check_vertex_dim(n)
    # Homogenize: a . x <= b becomes b t - a . x >= 0 on (x, t) with t >= 0.
    # The lower box rows -x_i <= 0 turn into the unit rows the double
    # description seed needs, and the upper box rows bound the polytope,
    # so every ray has t > 0.
    hrows = [(0,) * n + (1,)] + [tuple(-x for x in a) + (b,) for a, b in P.inequalities]
    rays = dd.extreme_rays_int(n + 1, hrows)
    # The rays are distinct and primitive, so their points x / t are
    # distinct; scaling every point by L = lcm of the t sorts them exactly
    # in integers.
    L = lcm(*[r[-1] for r in rays])
    rays.sort(key=lambda r: tuple(x * (L // r[-1]) for x in r[:-1]))
    return VertexSet(n, tuple(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays))


def codeword_polytope(H: BinaryMatrix) -> VertexSet:
    """V-representation of conv(C(H)): the codewords as 0/1 rational points."""
    words = enumerate_codewords(H)
    verts = tuple(tuple(Fraction(b) for b in c) for c in words)
    return VertexSet(H.cols, verts)


@record
class PseudocodewordCensus:
    """Vertices of the relaxed polytope split by codeword membership."""

    vertex_set: VertexSet
    codeword: tuple[tuple[Fraction, ...], ...]
    non_codeword: tuple[tuple[Fraction, ...], ...]


def lp_pseudocodewords(H: BinaryMatrix) -> PseudocodewordCensus:
    _check_vertex_dim(H.cols)  # before the row weights are checked
    vs = enumerate_vertices(build_relaxed_polytope(H))
    cw, non = [], []
    for v, integral in zip(vs.vertices, vs.integral):
        if integral and not any(mat_vec_mod2(H, [x.numerator for x in v])):
            cw.append(v)
        else:
            non.append(v)
    return PseudocodewordCensus(vs, tuple(cw), tuple(non))
