"""The relaxed polytope of a parity-check matrix and its vertex set.

Each row h of H contributes the halfspace description of the convex hull
of the even-weight patterns on its support: for every odd-cardinality
subset S of Supp(h),

    sum_{i in S} x_i  -  sum_{i in Supp(h) \\ S} x_i  <=  |S| - 1,

intersected with the box [0,1]^n.  relaxed_rows generates these rows
from H in sparse form; the decode LP is compiled from them directly, and
build_relaxed_polytope makes them dense only for double description and
membership.  Vertices are enumerated exactly by running double
description on the homogenization (x, t), t >= 0, and scaling the
resulting rays to t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from . import dd
from .errors import BoundExceeded
from .gf2 import BinaryMatrix, as_fraction_vector, enumerate_codewords, mat_vec_mod2

VERTEX_DIM_CAP = 16  # dimension bound for vertex enumeration
ROW_WEIGHT_CAP = 20  # each row of weight w expands to 2^(w-1) inequalities


@dataclass(frozen=True)
class PolytopeSystem:
    """Bounded system {x : a . x <= b}, rows stored as primitive integer
    (coeffs, bound) pairs; box rows 0 <= x_i <= 1 are part of the system.
    The constructor checks only the dimension and the row lengths."""

    dim: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for a, _ in self.inequalities:
            if len(a) != self.dim:
                raise ValueError("inequality row has wrong length")

    def contains(self, x: Sequence) -> bool:
        xx = as_fraction_vector(x)
        if len(xx) != self.dim:
            raise ValueError(f"length {len(xx)} != dim {self.dim}")
        return all(
            sum(a_i * x_i for a_i, x_i in zip(a, xx)) <= b
            for a, b in self.inequalities
        )


@dataclass(frozen=True)
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
    """The rows of the relaxed polytope, sparse: (pairs, bound) with pairs
    the (i, a_i) of the nonzero a_i, in column order.

    The box rows -x_i <= 0 and x_i <= 1 come first, then each check's odd
    sets by size, in combinations order; Bland's rule follows this order.
    Every row is primitive (entries -1 and 1 on its support) and none
    repeats.  A check above ROW_WEIGHT_CAP raises BoundExceeded before the
    first row.
    """
    for j, bits in enumerate(H.row_bits):
        if bits.bit_count() > ROW_WEIGHT_CAP:
            raise BoundExceeded(
                f"row {j} has weight {bits.bit_count()}, above the expansion cap {ROW_WEIGHT_CAP}"
            )
    minus = [(i, -1) for i in range(H.cols)]
    plus = [(i, 1) for i in range(H.cols)]
    for i in range(H.cols):
        yield (minus[i],), 0
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


def build_relaxed_polytope(H: BinaryMatrix) -> PolytopeSystem:
    """relaxed_rows made dense, for double description and membership."""
    n = H.cols
    rows = []
    for pairs, bound in relaxed_rows(H):
        a = [0] * n
        for i, x in pairs:
            a[i] = x
        rows.append((tuple(a), bound))
    return PolytopeSystem(n, tuple(rows))


def _check_vertex_dim(n: int) -> None:
    if n > VERTEX_DIM_CAP:
        raise BoundExceeded(f"dimension {n} exceeds vertex enumeration cap {VERTEX_DIM_CAP}")


def enumerate_vertices(P: PolytopeSystem) -> VertexSet:
    """Complete vertex set via double description on the homogenization."""
    n = P.dim
    _check_vertex_dim(n)
    # Homogenize: a . x <= b becomes b t - a . x >= 0 on (x, t) with t >= 0.
    # The lower box rows -x_i <= 0 turn into the unit rows the double
    # description seed needs; extreme_rays_int raises ValueError without them.
    hrows = [(0,) * n + (1,)] + [tuple(-x for x in a) + (b,) for a, b in P.inequalities]
    rays = dd.extreme_rays_int(n + 1, hrows)
    if any(r[-1] == 0 for r in rays):
        raise ValueError("system is unbounded; the polytope contract requires box rows")
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


@dataclass(frozen=True)
class PseudocodewordCensus:
    """Vertices of the relaxed polytope split by codeword membership."""

    vertex_set: VertexSet
    codeword: tuple[tuple[Fraction, ...], ...]
    non_codeword: tuple[tuple[Fraction, ...], ...]


def lp_pseudocodewords(H: BinaryMatrix) -> PseudocodewordCensus:
    _check_vertex_dim(H.cols)  # before the rows are built
    vs = enumerate_vertices(build_relaxed_polytope(H))
    cw, non = [], []
    for v, integral in zip(vs.vertices, vs.integral):
        if integral and not any(mat_vec_mod2(H, [int(x) for x in v])):
            cw.append(v)
        else:
            non.append(v)
    return PseudocodewordCensus(vs, tuple(cw), tuple(non))
