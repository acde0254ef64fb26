"""The relaxed polytope of a parity-check matrix and its vertex set.

Each row h of H contributes the halfspace description of the convex hull
of the even-weight patterns on its support: for every odd-cardinality
subset S of Supp(h),

    sum_{i in S} x_i  -  sum_{i in Supp(h) \\ S} x_i  <=  |S| - 1,

intersected with the box [0,1]^n.  Vertices are enumerated exactly by
running double description on the homogenization (x, t), t >= 0, and
scaling the resulting rays to t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import dd
from .errors import BoundExceeded
from .gf2 import BinaryMatrix, as_fraction_vector, enumerate_codewords, mat_vec_mod2

VERTEX_DIM_CAP = 16  # default dimension bound for vertex enumeration
ROW_WEIGHT_CAP = 20  # each row of weight w expands to 2^(w-1) inequalities


@dataclass(frozen=True)
class PolytopeSystem:
    """Bounded system {x : a . x <= b}, rows stored as primitive integer
    (coeffs, bound) pairs; box rows 0 <= x_i <= 1 are part of the system."""

    dim: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_rows(cls, dim: int, rows: Sequence[tuple[Sequence, object]]) -> "PolytopeSystem":
        seen = {}
        for a, b in rows:
            merged = dd.integerize(tuple(a) + (Fraction(b),))
            na, nb = merged[:-1], merged[-1]
            if any(na):
                seen.setdefault((na, nb), None)
            elif nb < 0:
                raise ValueError("row 0 . x <= negative bound is infeasible")
        return cls(dim, tuple(seen))

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


def build_relaxed_polytope(
    H: BinaryMatrix, row_weight_cap: int = ROW_WEIGHT_CAP
) -> PolytopeSystem:
    # Every row has coefficients in {-1, 0, 1}, one of them nonzero, and an
    # integer bound: it is already primitive, so only duplicates are dropped.
    n = H.cols
    rows: list[tuple[tuple[int, ...], int]] = []
    for i in range(n):
        rows.append((tuple(-1 if t == i else 0 for t in range(n)), 0))
        rows.append((tuple(1 if t == i else 0 for t in range(n)), 1))
    for j in range(H.rows):
        sup = H.row_support(j)
        if len(sup) > row_weight_cap:
            raise BoundExceeded(
                f"row {j} has weight {len(sup)}, above the expansion cap {row_weight_cap}"
            )
        base = [0] * n
        for i in sup:
            base[i] = -1
        for size in range(1, len(sup) + 1, 2):
            for S in combinations(sup, size):
                a = base.copy()
                for i in S:
                    a[i] = 1
                rows.append((tuple(a), size - 1))
    return PolytopeSystem(n, tuple(dict.fromkeys(rows)))


def enumerate_vertices(P: PolytopeSystem, max_dim: int = VERTEX_DIM_CAP) -> VertexSet:
    """Complete vertex set via double description on the homogenization."""
    n = P.dim
    if n > max_dim:
        raise BoundExceeded(f"dimension {n} exceeds vertex enumeration cap {max_dim}")
    # Homogenize: a . x <= b becomes b t - a . x >= 0 on (x, t) with t >= 0.
    # The lower box rows -x_i <= 0 turn into the unit rows the double
    # description seed needs; extreme_rays_int raises ValueError without them.
    hrows = [(0,) * n + (1,)] + [tuple(-x for x in a) + (b,) for a, b in P.inequalities]
    rays = dd.extreme_rays_int(n + 1, hrows)
    verts = []
    for r in rays:
        t = r[-1]
        if t == 0:
            raise ValueError(
                "system is unbounded; the polytope contract requires box rows"
            )
        verts.append(tuple(Fraction(x, t) for x in r[:-1]))
    return VertexSet(n, tuple(sorted(set(verts))))


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


def lp_pseudocodewords(
    H: BinaryMatrix,
    max_dim: int = VERTEX_DIM_CAP,
    row_weight_cap: int = ROW_WEIGHT_CAP,
) -> PseudocodewordCensus:
    vs = enumerate_vertices(build_relaxed_polytope(H, row_weight_cap), max_dim)
    cw, non = [], []
    for v in vs.vertices:
        if all(x.denominator == 1 for x in v) and not any(
            mat_vec_mod2(H, [int(x) for x in v])
        ):
            cw.append(v)
        else:
            non.append(v)
    return PseudocodewordCensus(vs, tuple(cw), tuple(non))
