"""The fundamental cone of a parity-check matrix, as an exact rational
inequality system, plus the block composition rules it obeys.

For H with entries h_ji, the cone consists of the nonnegative vectors v
with Row_j(H) . v >= 2 h_ji v_i for every row j and coordinate i.  Only
the support positions of each row contribute inequalities (h_ji = 0 makes
the condition a consequence of nonnegativity), so the system is
  { Row_j(H) - 2 e_i : j in [r], i in Supp(Row_j) }  ∪  { e_i : i in [n] }.
A ConeSystem is a record of H: its dense rows are made from H when first
read, for double description and serialization, and no constructor takes
rows.  Membership has one rule, in_cone, read from H itself.
The three lift rules (block rows, repeated blocks, an appended block) share
one premise check, each given vector in its own cone, and one certificate,
the lifted vector re-checked with in_cone against the composed matrix.
The cone of a stacked or block-diagonal matrix is built from that matrix.

All arithmetic here is exact; there is no floating-point path.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from . import dd
from .errors import BoundExceeded
from .gf2 import BinaryMatrix, BinaryVector, as_fraction_vector, block_matrix
from .record import record

RAY_DIM_CAP = 20  # dimension bound for extreme-ray enumeration


@record
class ConeSystem:
    """The fundamental cone of H, {v : a . v >= 0 for all rows a}.

    The rows are made from H the first time they are read: the
    nonnegativity rows e_i first, then Row_j(H) - 2 e_i for each row j and
    i in its support, in row order, repeated rows dropped.  Every row has entries in {-1, 0, 1}
    and one of them nonzero, so it is already primitive.  Equality and
    hash follow H.
    """

    H: BinaryMatrix

    @functools.cached_property
    def inequalities(self) -> tuple[tuple[int, ...], ...]:
        H, n = self.H, self.H.cols
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
        return tuple(dict.fromkeys(rows))

    @property
    def dim(self) -> int:
        return self.H.cols

    def contains(self, v: Sequence) -> bool:
        return in_cone(self.H, v)


@record
class RayList:
    """Extreme rays, canonicalized to primitive integer vectors."""

    dim: int
    rays: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.rays)


def build_fundamental_cone(H: BinaryMatrix) -> ConeSystem:
    return ConeSystem(H)


def in_cone(H: BinaryMatrix, v: Sequence) -> bool:
    """Membership in the fundamental cone of H, read from the rows of H.

    v >= 0 and, on every row, the support sum is at least twice the
    largest support entry; no dense row is built.  A weight-0 row imposes
    nothing; a weight-1 row forces its entry to 0.  The cone is closed
    under positive scaling, so v is first scaled to a primitive integer
    vector.
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
    """Complete set of extreme rays via double description, seeded by the
    cone's nonnegativity rows; rays come out sorted and primitive."""
    if K.dim > RAY_DIM_CAP:
        raise BoundExceeded(f"dimension {K.dim} exceeds ray enumeration cap {RAY_DIM_CAP}")
    rays = dd.extreme_rays_int(K.dim, K.inequalities)
    return RayList(K.dim, tuple(rays))


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
