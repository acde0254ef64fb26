"""The fundamental cone of a parity-check matrix, as an exact rational
inequality system, plus the block composition rules it obeys.

For H with entries h_ji, the cone consists of the nonnegative vectors v
with Row_j(H) . v >= 2 h_ji v_i for every row j and coordinate i.  Only
the support positions of each row contribute inequalities (h_ji = 0 makes
the condition a consequence of nonnegativity), so the system is
  { Row_j(H) - 2 e_i : j in [r], i in Supp(Row_j) }  ∪  { e_i : i in [n] }.
Membership of a vector in the cone of H is read from H itself (in_cone);
the dense system is built only where its rows are the output.  Membership
in a dense system (ConeSystem.contains) integerizes v once and then takes
exact int dot products with the integer rows: the system is homogeneous,
so the positive scaling that clears v's denominators keeps every sign.
The three lift rules (block rows, repeated blocks, an appended block) share
one premise check, each given vector in its own cone, and one certificate,
the lifted vector re-checked with in_cone against the composed matrix.

All arithmetic here is exact; there is no floating-point path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import dd
from .errors import BoundExceeded
from .gf2 import BinaryMatrix, BinaryVector, as_fraction_vector, block_matrix

RAY_DIM_CAP = 20  # dimension bound for extreme-ray enumeration


@dataclass(frozen=True)
class ConeSystem:
    """Homogeneous system {v : a . v >= 0 for all rows a}, rows stored as
    primitive integer vectors.  build_fundamental_cone includes the
    nonnegativity rows; from_rows adds none.

    contains(v) scales v once to a primitive integer vector with
    dd.integerize, then tests every row with an exact int dot product.
    The scale is positive and each row is homogeneous, so the sign of
    a . v, and with it the answer, is that of the rational v.
    """

    dim: int
    inequalities: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for a in self.inequalities:
            if len(a) != self.dim:
                raise ValueError("inequality row has wrong length")

    @classmethod
    def from_rows(cls, dim: int, rows: Sequence[Sequence]) -> "ConeSystem":
        """Normalize rows (clear denominators, divide by gcd) and dedup."""
        seen = {}
        for a in rows:
            na = dd.integerize(a)
            if any(na):
                seen.setdefault(na, None)
        return cls(dim, tuple(seen))

    def contains(self, v: Sequence) -> bool:
        vv = dd.integerize(v)
        if len(vv) != self.dim:
            raise ValueError(f"length {len(vv)} != dim {self.dim}")
        return all(sum(map(mul, a, vv)) >= 0 for a in self.inequalities)


@dataclass(frozen=True)
class RayList:
    """Extreme rays, canonicalized to primitive integer vectors."""

    dim: int
    rays: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.rays)


def build_fundamental_cone(H: BinaryMatrix) -> ConeSystem:
    # Every row has entries in {-1, 0, 1}, one of them nonzero: it is
    # already primitive, so only duplicates are dropped.
    n = H.cols
    rows = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    for j in range(H.rows):
        sup = H.row_support(j)
        h = [0] * n
        for i in sup:
            h[i] = 1
        for i in sup:
            h[i] = -1
            rows.append(tuple(h))
            h[i] = 1
    return ConeSystem(n, tuple(dict.fromkeys(rows)))


def in_cone(H: BinaryMatrix, v: Sequence) -> bool:
    """Membership in the fundamental cone of H, read from the rows of H.

    Equivalent to build_fundamental_cone(H).contains(v) without building the
    system: v >= 0 and, on every row, the support sum is at least twice the
    largest support entry.  A weight-0 row imposes nothing; a weight-1 row
    forces its entry to 0.  The cone is closed under positive scaling, so v
    is first scaled to a primitive integer vector.
    """
    vv = dd.integerize(v)
    if len(vv) != H.cols:
        raise ValueError(f"length {len(vv)} != dim {H.cols}")
    if any(x < 0 for x in vv):
        return False
    for j in range(H.rows):
        sup = [vv[i] for i in H.row_support(j)]
        if sum(sup) < 2 * max(sup, default=0):
            return False
    return True


def extreme_rays(K: ConeSystem) -> RayList:
    """Complete set of extreme rays via double description.

    The cone must include its nonnegativity rows (ConeSystem built by this
    module always does); rays come out sorted and primitive.
    """
    if K.dim > RAY_DIM_CAP:
        raise BoundExceeded(f"dimension {K.dim} exceeds ray enumeration cap {RAY_DIM_CAP}")
    rays = dd.extreme_rays_int(K.dim, K.inequalities)
    return RayList(K.dim, tuple(rays))


def intersect_cones(cones: Sequence[ConeSystem]) -> ConeSystem:
    """Cone of the row-stacked matrix: concatenate systems, dedup rows."""
    if not cones:
        raise ValueError("need at least one cone")
    dim = cones[0].dim
    if any(K.dim != dim for K in cones):
        raise ValueError("dimension mismatch")
    rows = [a for K in cones for a in K.inequalities]
    return ConeSystem.from_rows(dim, rows)


def product_cone(cones: Sequence[ConeSystem]) -> ConeSystem:
    """Block-diagonal system: (v_1, ..., v_t) is a member iff each v_k is."""
    dim = sum(K.dim for K in cones)
    if dim == 0:
        raise ValueError("empty product")
    rows = []
    offset = 0
    for K in cones:
        for a in K.inequalities:
            rows.append((0,) * offset + a + (0,) * (dim - offset - K.dim))
        offset += K.dim
    return ConeSystem.from_rows(dim, rows)


def _member(H: BinaryMatrix, v: Sequence, name: str) -> tuple[Fraction, ...]:
    """v as exact rationals, after checking that it is a member of K(H)."""
    vv = as_fraction_vector(v)
    if len(vv) != H.cols:
        raise ValueError(f"{name} has wrong length")
    if not in_cone(H, vv):
        raise ValueError(f"{name} is not in the cone of its matrix")
    return vv


def _confirm(H: BinaryMatrix, w: Sequence) -> None:
    """Direct re-check of a vector that a lift rule put in K(H)."""
    if not in_cone(H, w):
        raise AssertionError("lift rule held but direct membership failed")


def blockrow_embed(
    vs: Sequence[Sequence], Hs: Sequence[BinaryMatrix]
) -> tuple[tuple[Fraction, ...], bool]:
    """Concatenate per-block cone members into a member of the block-row cone.

    Each v_k must lie in the cone of its own H_k (checked; ValueError if
    not).  The concatenation is re-checked directly against the cone of
    [H_1 ... H_t], which the containment guarantees, so the flag is True.
    """
    if len(vs) != len(Hs):
        raise ValueError("need one vector per block")
    if not Hs:
        raise ValueError("need at least one block")
    if any(h.rows != Hs[0].rows for h in Hs):
        raise ValueError("blocks must share a row count")
    parts = [_member(h, v, f"block {k}") for k, (v, h) in enumerate(zip(vs, Hs))]
    w = tuple(x for part in parts for x in part)
    _confirm(block_matrix([Hs]), w)
    return w, True


def repeated_block_membership(
    H: BinaryMatrix, v: Sequence, w: Sequence, t: int
) -> bool:
    """Sandwich test for membership of w in the cone of [H H ... H] (t copies).

    Requires v in the cone of H.  Returns True iff
        w_ki <= v_i <= sum_j w_ji   for all i, k,
    a sufficient condition; when it holds, membership of w is re-verified
    directly (and must hold).
    """
    n = H.cols
    vv = _member(H, v, "v")
    ww = as_fraction_vector(w)
    if t < 1 or len(ww) != t * n:
        raise ValueError("w must have length t * cols(H)")
    if any(x < 0 for x in ww):
        return False
    if any(max(ww[i::n]) > vv[i] or vv[i] > sum(ww[i::n]) for i in range(n)):
        return False
    _confirm(block_matrix([[H] * t]), ww)
    return True


def augment_column_lift(H1: BinaryMatrix, s, v: Sequence, w) -> bool:
    """Slack test for lifting a cone member v across an appended block E.

    s a BinaryVector of length rows(H1) with w a scalar gives E = s^T; s a
    permutation of range(rows(H1)) with w a vector gives E = J_s, whose row
    j has its one in column s(j).  One rule for both: with v in the cone of
    H1 (checked; ValueError if not), w >= 0 and w_c <= Row_j(H1) . v for
    every E_jc = 1 put (v, w) in the cone of [H1 | E].  Proof, row j: its
    H1 inequalities hold because v is in the cone of H1 and w >= 0; for
    E_jc = 1, Row_j(H1) . v >= w_c gives the appended inequality.  A pass is
    re-checked directly.  The rule is sufficient, not necessary: False does
    not rule out membership of the lifted vector.
    """
    vv = _member(H1, v, "v")
    m = H1.rows
    if isinstance(s, BinaryVector):
        if s.n != m:
            raise ValueError("s must have one entry per row of H1")
        E, ww = BinaryMatrix(m, 1, list(s)), (Fraction(w),)
    else:
        sigma = list(s)
        if sorted(sigma) != list(range(m)):
            raise ValueError("s must be a permutation of range(rows)")
        ww = as_fraction_vector(w)
        if len(ww) != m:
            raise ValueError("w must have one entry per row of H1")
        E = BinaryMatrix(m, m, [1 << c for c in sigma])
    if any(x < 0 for x in ww):
        return False
    for j in range(m):
        dot = sum(vv[i] for i in H1.row_support(j))
        if any(ww[c] > dot for c in E.row_support(j)):
            return False
    _confirm(block_matrix([[H1, E]]), vv + ww)
    return True
