"""Graph-cover pseudocodewords and their truncated generating functions.

A nonnegative integer vector p is a pseudocodeword of H exactly when it
lies in the fundamental cone of H and H p^T = 0 mod 2.  The full set is
infinite (closed under addition), so enumeration and generating functions
are truncated to the box {0, ..., B}^n; the bound B is carried by every
result.
"""

from __future__ import annotations

from dataclasses import field
from typing import Sequence

from .cone import in_cone
from .errors import BoundExceeded
from .gf2 import BinaryMatrix, mat_vec_mod2
from .record import record

BOX_BUDGET = 1 << 24  # max number of lattice points a box sweep may cover


@record
class Pseudocodeword:
    """Integer vector certified against a specific H at construction."""

    coords: tuple[int, ...]

    @classmethod
    def certify(cls, H: BinaryMatrix, coords: Sequence[int]) -> "Pseudocodeword":
        if not is_gc_pseudocodeword(H, coords):
            raise ValueError(f"{tuple(coords)} is not a pseudocodeword of this matrix")
        return cls(tuple(int(x) for x in coords))


def is_gc_pseudocodeword(H: BinaryMatrix, p: Sequence[int]) -> bool:
    """Cone membership plus even parity on every row."""
    if len(p) != H.cols:
        raise ValueError(f"length {len(p)} != cols {H.cols}")
    if any(x < 0 or x != int(x) for x in p):
        return False
    p = [int(x) for x in p]
    if any(mat_vec_mod2(H, p)):
        return False
    return in_cone(H, p)


def enumerate_pseudocodewords(H: BinaryMatrix, bound: int) -> list[Pseudocodeword]:
    """All pseudocodewords in {0..bound}^n, in lexicographic order, by a
    pruned depth-first walk over the columns.

    Each row keeps its running support sum and its largest assigned entry.
    The level for column i saves both for the rows through column i, sets
    them to (sum + x, max(max, x)) for each value x it tries, and restores
    them once when it is done.  A branch dies when a row has
    sum + bound * (support columns left) < 2 * max, or when a row's last
    column leaves its sum odd.  The prune is exact: a row's final sum is at
    most sum + bound * left and its final max at least the current max, so
    a pruned branch has no completion that meets the cone inequality
    sum >= 2 * max; and a leaf is reached exactly when every row meets that
    inequality with an even sum.  At bound 0 the box holds only the zero
    vector, a pseudocodeword, returned without the n-deep recursive walk.
    """
    n = H.cols
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if not bound:
        return [Pseudocodeword((0,) * n)]
    if (bound + 1) ** n > BOX_BUDGET:
        raise BoundExceeded(
            f"box sweep of ({bound + 1})^{n} points exceeds budget {BOX_BUDGET}"
        )

    rows_at = [[] for _ in range(n)]  # (row, support columns left after i)
    for j in range(H.rows):
        sup = H.row_support(j)
        for k, i in enumerate(sup):
            rows_at[i].append((j, len(sup) - 1 - k))

    found: list[Pseudocodeword] = []
    v = [0] * n
    psum = [0] * H.rows
    pmax = [0] * H.rows

    def walk(i: int) -> None:
        if i == n:
            found.append(Pseudocodeword(tuple(v)))
            return
        saved = [(j, left, psum[j], pmax[j]) for j, left in rows_at[i]]
        for x in range(bound + 1):
            for j, left, s, t in saved:
                s += x
                t = max(t, x)
                if s + bound * left < 2 * t or (not left and s % 2):
                    break
                psum[j], pmax[j] = s, t
            else:
                v[i] = x
                walk(i + 1)
        for j, _, s, t in saved:
            psum[j], pmax[j] = s, t

    walk(0)
    return found


@record
class GenFun:
    """Sparse multivariate polynomial sum of x^p over pseudocodewords p,
    truncated to exponents <= bound coordinatewise.

    Coefficients are kept as nonnegative integers so that a product over
    disjoint variable blocks can never silently cancel terms; for a single
    matrix every coefficient is 1.  `blocks` optionally records a column
    partition (variable counts per block) for restriction; equality and
    hash ignore it.
    """

    num_vars: int
    bound: int
    terms: dict[tuple[int, ...], int] = field(hash=False)
    blocks: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        for e, c in self.terms.items():
            if len(e) != self.num_vars or any(x < 0 or x > self.bound for x in e):
                raise ValueError(f"bad exponent vector {e}")
            if c < 1:
                raise ValueError("coefficients must be >= 1")
        if self.blocks is not None and sum(self.blocks) != self.num_vars:
            raise ValueError("block sizes must sum to num_vars")

    def with_blocks(self, blocks: Sequence[int]) -> "GenFun":
        return GenFun(self.num_vars, self.bound, dict(self.terms), tuple(blocks))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)


def generating_function(H: BinaryMatrix, bound: int) -> GenFun:
    terms = {p.coords: 1 for p in enumerate_pseudocodewords(H, bound)}
    return GenFun(H.cols, bound, terms)


def genfun_product(fs: Sequence[GenFun]) -> GenFun:
    """Product over disjoint variable blocks (exponent concatenation)."""
    if not fs:
        raise ValueError("need at least one factor")
    bound = fs[0].bound
    if any(f.bound != bound for f in fs):
        raise ValueError("factors must share a truncation bound")
    terms: dict[tuple[int, ...], int] = {(): 1}
    for f in fs:
        terms = {
            e1 + e2: c1 * c2
            for e1, c1 in terms.items()
            for e2, c2 in f.terms.items()
        }
    return GenFun(
        sum(f.num_vars for f in fs),
        bound,
        terms,
        tuple(f.num_vars for f in fs),
    )


def genfun_restrict(f: GenFun, block: int) -> GenFun:
    """Set all variables outside the given block to zero.

    Keeps exactly the terms whose exponents vanish off the block and
    re-indexes them to the block's variables.
    """
    if f.blocks is None:
        raise ValueError("generating function carries no block metadata")
    if not 0 <= block < len(f.blocks):
        raise ValueError(f"block index {block} out of range")
    start = sum(f.blocks[:block])
    stop = start + f.blocks[block]
    terms: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        if any(e[: start]) or any(e[stop:]):
            continue
        key = e[start:stop]
        terms[key] = terms.get(key, 0) + c
    return GenFun(f.blocks[block], f.bound, terms)
