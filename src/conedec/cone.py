"""The fundamental cone of a parity-check matrix, as an exact rational
inequality system, plus the block composition rules it obeys.

For H with entries h_ji, the cone consists of the nonnegative vectors v
with Row_j(H) . v >= 2 h_ji v_i for every row j and coordinate i.  Only
the support positions of each row contribute inequalities (h_ji = 0 makes
the condition a consequence of nonnegativity), so the system is
  { Row_j(H) - 2 e_i : j in [r], i in Supp(Row_j) }  ∪  { e_i : i in [n] }.
Membership of a vector in the cone of H is read from H itself (in_cone);
the dense system is built only where its rows are the output.

All arithmetic here is exact; there is no floating-point path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import dd
from .errors import BoundExceeded
from .gf2 import BinaryMatrix, BinaryVector, as_fraction_vector, block_matrix

RAY_DIM_CAP = 20  # default dimension bound for extreme-ray enumeration


@dataclass(frozen=True)
class ConeSystem:
    """Homogeneous system {v : a . v >= 0 for all rows a}, rows stored as
    primitive integer vectors (nonnegativity rows included)."""

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
        vv = as_fraction_vector(v)
        if len(vv) != self.dim:
            raise ValueError(f"length {len(vv)} != dim {self.dim}")
        return all(
            sum(a_i * x for a_i, x in zip(a, vv)) >= 0 for a in self.inequalities
        )


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


def extreme_rays(K: ConeSystem, max_dim: int = RAY_DIM_CAP) -> RayList:
    """Complete set of extreme rays via double description.

    The cone must include its nonnegativity rows (ConeSystem built by this
    module always does); rays come out sorted and primitive.
    """
    if K.dim > max_dim:
        raise BoundExceeded(f"dimension {K.dim} exceeds ray enumeration cap {max_dim}")
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


def blockrow_embed(
    vs: Sequence[Sequence], Hs: Sequence[BinaryMatrix]
) -> tuple[tuple[Fraction, ...], bool]:
    """Concatenate per-block cone members into a member of the block-row cone.

    Each v_k must lie in the cone of its own H_k (checked; ValueError if
    not).  The returned flag is the direct membership re-check of the
    concatenation against the cone of [H_1 ... H_t]; the containment
    guarantees it is always True.
    """
    if len(vs) != len(Hs):
        raise ValueError("need one vector per block")
    if not Hs:
        raise ValueError("need at least one block")
    if any(h.rows != Hs[0].rows for h in Hs):
        raise ValueError("blocks must share a row count")
    parts = []
    for k, (v, h) in enumerate(zip(vs, Hs)):
        vv = as_fraction_vector(v)
        if not in_cone(h, vv):
            raise ValueError(f"block {k}: vector is not in its own cone")
        parts.append(vv)
    w = tuple(x for part in parts for x in part)
    return w, in_cone(block_matrix([Hs]), w)


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
    vv = as_fraction_vector(v)
    ww = as_fraction_vector(w)
    if len(vv) != n:
        raise ValueError("v has wrong length")
    if t < 1 or len(ww) != t * n:
        raise ValueError("w must have length t * cols(H)")
    if not in_cone(H, vv):
        raise ValueError("v is not in the cone of H")
    if any(x < 0 for x in ww):
        return False
    for i in range(n):
        col = [ww[k * n + i] for k in range(t)]
        if any(c > vv[i] for c in col) or vv[i] > sum(col):
            return False
    if not in_cone(block_matrix([[H] * t]), ww):
        raise AssertionError("sandwich condition held but direct membership failed")
    return True


def augment_column_lift(H1: BinaryMatrix, s, v: Sequence, w) -> bool:
    """Slack test for lifting a cone member across appended columns.

    Two forms, selected by the type of s:
      * s a BinaryVector of length rows(H1), w a scalar: tests
        w <= Row_j(H1) . v for all j in Supp(s); when true, (v, w) lies in
        the cone of [H1 | s^T] (verified directly).
      * s a permutation of range(rows(H1)) (sequence of ints), w a vector of
        length rows(H1): tests w_{s(j)} <= Row_j(H1) . v for all j; when
        true, (v, w) lies in the cone of [H1 | J_s] (verified directly).

    The condition is sufficient, not necessary: False does not rule out
    membership of the lifted vector.
    """
    vv = as_fraction_vector(v)
    if len(vv) != H1.cols:
        raise ValueError("v has wrong length")
    if not in_cone(H1, vv):
        raise ValueError("v is not in the cone of H1")
    row_dots = [
        sum(vv[i] for i in H1.row_support(j)) for j in range(H1.rows)
    ]

    if isinstance(s, BinaryVector):
        if s.n != H1.rows:
            raise ValueError("s must have one entry per row of H1")
        wf = Fraction(w)
        if wf < 0:
            return False
        if any(wf > row_dots[j] for j in s.support()):
            return False
        lifted = tuple(vv) + (wf,)
        extra = BinaryMatrix(H1.rows, 1, list(s))
    else:
        sigma = list(s)
        if sorted(sigma) != list(range(H1.rows)):
            raise ValueError("s must be a permutation of range(rows)")
        wf = as_fraction_vector(w)
        if len(wf) != H1.rows:
            raise ValueError("w must have one entry per row of H1")
        if any(x < 0 for x in wf):
            return False
        if any(wf[sigma[j]] > row_dots[j] for j in range(H1.rows)):
            return False
        lifted = tuple(vv) + tuple(wf)
        extra = BinaryMatrix(H1.rows, H1.rows, [1 << x for x in sigma])
    if not in_cone(block_matrix([[H1, extra]]), lifted):
        raise AssertionError("slack condition held but direct membership failed")
    return True
