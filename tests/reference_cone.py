"""Earlier forms of cone.py code, kept as test oracles.

reference_cone_contains is ConeSystem.contains as it was before it
integerized v: every entry becomes a Fraction and every row a Fraction dot
product.

The three lift rules are as they were before they shared one premise
check, one re-check and, for the column rule, one appended block;
reference_augment_column_lift runs one code path for an appended column
s^T and another for an appended permutation block J_sigma.

Each oracle returns what cone.py's function of the same name must return,
or raises an exception of the same type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from conedec.cone import ConeSystem, in_cone
from conedec.gf2 import BinaryMatrix, BinaryVector, as_fraction_vector, block_matrix


def reference_cone_contains(K: ConeSystem, v: Sequence) -> bool:
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
