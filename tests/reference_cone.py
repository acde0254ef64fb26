"""Earlier forms of cone.py code, kept as test oracles.

reference_cone_contains is the dense ConeSystem.contains as it was before
it integerized v, and before ConeSystem.contains became in_cone: every
entry becomes a Fraction and every row a Fraction dot product.  It reads
any system with dim and inequalities, a ConeSystem among them.

The three lift rules are as they were before they shared one premise
check, one re-check and, for the column rule, one appended block;
reference_augment_column_lift runs one code path for an appended column
s^T and another for an appended permutation block J_sigma.

Each oracle returns what cone.py's function of the same name must return,
or raises an exception of the same type.

The dense row-system algebra left cone.py and polytope.py because the
composed cones are built from the composed matrix: intersect_cones of
K(H1), K(H2) has the rows of K(H1 stacked on H2), and product_cone has the
rows of K(direct_sum).  cone_from_rows and polytope_from_rows are the
former ConeSystem.from_rows and PolytopeSystem.from_rows, which clear
denominators, divide by the gcd and drop repeated rows.  ConeSystem and
PolytopeSystem are now records of a matrix and take no rows, so these
oracles return the test-local records RowCone and RowPolytope: dim,
inequalities and the Fraction membership oracle as contains.  rows_of
gives the (dim, inequalities) that a record and a system are compared by.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from conedec import dd
from conedec.cone import in_cone
from conedec.gf2 import BinaryMatrix, BinaryVector, as_fraction_vector, block_matrix


@dataclass(frozen=True)
class RowCone:
    """A homogeneous system {v : a . v >= 0} made from loose rows."""

    dim: int
    inequalities: tuple[tuple[int, ...], ...]

    def contains(self, v: Sequence) -> bool:
        return reference_cone_contains(self, v)


@dataclass(frozen=True)
class RowPolytope:
    """A system {x : a . x <= b} made from loose (coeffs, bound) rows."""

    dim: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    def contains(self, x: Sequence) -> bool:
        xx = as_fraction_vector(x)
        if len(xx) != self.dim:
            raise ValueError(f"length {len(xx)} != dim {self.dim}")
        return all(
            sum(a_i * x_i for a_i, x_i in zip(a, xx)) <= b
            for a, b in self.inequalities
        )


def rows_of(system) -> tuple:
    return system.dim, system.inequalities


def cone_from_rows(dim: int, rows: Sequence[Sequence]) -> RowCone:
    """Normalize rows (clear denominators, divide by gcd) and dedup."""
    seen = {}
    for a in rows:
        na = dd.integerize(a)
        if any(na):
            seen.setdefault(na, None)
    return RowCone(dim, tuple(seen))


def polytope_from_rows(dim: int, rows: Sequence[tuple[Sequence, object]]) -> RowPolytope:
    seen = {}
    for a, b in rows:
        if len(a) != dim:
            raise ValueError("inequality row has wrong length")
        merged = dd.integerize(tuple(a) + (Fraction(b),))
        na, nb = merged[:-1], merged[-1]
        if any(na):
            seen.setdefault((na, nb), None)
        elif nb < 0:
            raise ValueError("row 0 . x <= negative bound is infeasible")
    return RowPolytope(dim, tuple(seen))


def intersect_cones(cones: Sequence) -> RowCone:
    """Cone of the row-stacked matrix: concatenate systems, dedup rows."""
    if not cones:
        raise ValueError("need at least one cone")
    dim = cones[0].dim
    if any(K.dim != dim for K in cones):
        raise ValueError("dimension mismatch")
    rows = [a for K in cones for a in K.inequalities]
    return cone_from_rows(dim, rows)


def product_cone(cones: Sequence) -> RowCone:
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
    return cone_from_rows(dim, rows)


def reference_cone_contains(K, v: Sequence) -> bool:
    vv = as_fraction_vector(v)
    if len(vv) != K.dim:
        raise ValueError(f"length {len(vv)} != dim {K.dim}")
    return all(
        sum(a_i * x for a_i, x in zip(a, vv)) >= 0 for a in K.inequalities
    )


def reference_blockrow_embed(
    vs: Sequence[Sequence], Hs: Sequence[BinaryMatrix]
) -> tuple[tuple[Fraction, ...], bool]:
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


def reference_repeated_block_membership(
    H: BinaryMatrix, v: Sequence, w: Sequence, t: int
) -> bool:
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


def reference_augment_column_lift(H1: BinaryMatrix, s, v: Sequence, w) -> bool:
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
