"""Builders for the code families under study: Hamming and Steane matrices,
CSS pairs, stabilizer label matrices, circulant/quasi-cyclic blocks, and
spatially-coupled band matrices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf2 import BinaryMatrix, block_matrix

# Rows of the cyclic 3x7 representation of the [7,4,3] Hamming code:
# consecutive right-rotations of (1,0,1,1,1,0,0).
_HAMMING7_CYCLIC_ROWS = (
    (1, 0, 1, 1, 1, 0, 0),
    (0, 1, 0, 1, 1, 1, 0),
    (0, 0, 1, 0, 1, 1, 1),
)

# Exponent matrices of the Hagiwara-Imai quasi-cyclic CSS pair with 7x7
# circulant permutation blocks (their Example 5.5 code).
HAGIWARA_EXPONENTS_C = ((1, 2, 4, 3, 6, 5), (4, 1, 2, 5, 3, 6), (2, 4, 1, 6, 5, 3))
HAGIWARA_EXPONENTS_D = ((4, 2, 1, 6, 3, 5), (1, 4, 2, 5, 6, 3), (2, 1, 4, 3, 5, 6))
HAGIWARA_BLOCK_SIZE = 7


def hamming_matrix(r: int, cyclic: bool = False) -> BinaryMatrix:
    """Parity-check matrix of the [2^r - 1, 2^r - r - 1, 3] Hamming code.

    Columns are the nonzero binary r-vectors in increasing numeric order
    (row 0 = least significant bit).  With cyclic=True (r = 3 only) the
    columns are permuted to the standard cyclic representation, whose rows
    are consecutive rotations of one weight-4 word.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if cyclic:
        if r != 3:
            raise ValueError("the cyclic representation is built in for r = 3 only")
        return BinaryMatrix.from_rows(_HAMMING7_CYCLIC_ROWS)
    n = (1 << r) - 1
    row_bits = []
    for j in range(r):
        bits = 0
        for i in range(1, n + 1):
            bits |= (((i >> j) & 1) << (i - 1))
        row_bits.append(bits)
    return BinaryMatrix(r, n, row_bits)


def css_matrix(H1: BinaryMatrix, H2: BinaryMatrix) -> BinaryMatrix:
    """Block-diagonal [[H1, 0], [0, H2]]; requires H1 H2^T = 0 over GF(2)."""
    if H1.cols != H2.cols:
        raise ValueError("CSS pair must act on the same number of columns")
    for j1, b1 in enumerate(H1.row_bits):
        for j2, b2 in enumerate(H2.row_bits):
            if (b1 & b2).bit_count() % 2:
                raise ValueError(
                    f"rows {j1} of H1 and {j2} of H2 are not orthogonal over GF(2)"
                )
    return direct_sum(H1, H2)


def direct_sum(H1: BinaryMatrix, H2: BinaryMatrix) -> BinaryMatrix:
    return block_matrix([[H1, None], [None, H2]])


def steane_matrix(r: int) -> BinaryMatrix:
    """CSS matrix with both factors equal to the order-r Hamming matrix.

    For r = 3 the cyclic representation is used, so the 6x14 result is the
    block-diagonal doubling of the cyclic 3x7 matrix.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    H = hamming_matrix(r, cyclic=(r == 3))
    return css_matrix(H, H)


_PAULI_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


@dataclass(frozen=True)
class PauliString:
    """A tensor word over {I, X, Y, Z}; phases are not representable here
    and the parser rejects them outright."""

    ops: str

    def __post_init__(self):
        if not self.ops:
            raise ValueError("empty Pauli string")
        bad = set(self.ops) - set("IXYZ")
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.ops)

    def x_part(self) -> tuple[int, ...]:
        return tuple(_PAULI_TO_BITS[c][0] for c in self.ops)

    def z_part(self) -> tuple[int, ...]:
        return tuple(_PAULI_TO_BITS[c][1] for c in self.ops)


def label_matrix(generators: Sequence[PauliString | str]) -> BinaryMatrix:
    """Binary label matrix: row j = (x-part of g_j | z-part of g_j)."""
    gens = [g if isinstance(g, PauliString) else PauliString(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators must have equal length")
    return BinaryMatrix.from_rows([g.x_part() + g.z_part() for g in gens])


def circulant_permutation(t: int, shift: int) -> BinaryMatrix:
    """t x t identity with every row rotated `shift` positions right."""
    if t < 1:
        raise ValueError("need t >= 1")
    return BinaryMatrix(t, t, [1 << ((j + shift) % t) for j in range(t)])


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer exponent grid; entry e_ij stands for the t x t circulant
    permutation with shift e_ij."""

    entries: tuple[tuple[int, ...], ...]
    block_size: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], block_size: int) -> "ExponentMatrix":
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        norm = tuple(tuple(int(e) % block_size for e in row) for row in rows)
        if not norm or len({len(r) for r in norm}) > 1:
            raise ValueError("exponent rows must be nonempty and rectangular")
        return cls(norm, block_size)


def qc_from_exponents(E: ExponentMatrix) -> BinaryMatrix:
    """Replace every exponent by its circulant permutation block."""
    t = E.block_size
    return block_matrix(
        [[circulant_permutation(t, e) for e in row] for row in E.entries]
    )


def block_circulant(blocks: Sequence[BinaryMatrix]) -> BinaryMatrix:
    """Stack t block rows, row i holding the block list rotated right i steps:
    the first block row reads (H_1 ... H_t), the second (H_t H_1 ...)."""
    t = len(blocks)
    return block_matrix([[blocks[(k - i) % t] for k in range(t)] for i in range(t)])


def sc_ldpc(blocks: Sequence[BinaryMatrix], L: int, mode: str) -> BinaryMatrix:
    """Spatially-coupled band matrix from component blocks H_0 ... H_m.

    terminated: (L+m) x L block grid with block (i, j) = H_{i-j}; tailbiting:
    L x L grid with block (i, j) = H_{(i-j) mod L}, requiring L >= m + 1 so
    each block column carries each H_j exactly once.
    """
    if not blocks:
        raise ValueError("need at least one block")
    m = len(blocks) - 1
    nc, nr = blocks[0].rows, blocks[0].cols
    # block_matrix alone would not catch every mismatch: with L = 1 each
    # terminated block row holds a single block, so row counts may differ.
    if any(b.rows != nc or b.cols != nr for b in blocks):
        raise ValueError("blocks must share dimensions")
    if L < 1:
        raise ValueError("need L >= 1")
    if mode == "terminated":
        block_rows = L + m
    elif mode == "tailbiting":
        if L < m + 1:
            raise ValueError("tailbiting needs L >= m + 1")
        block_rows = L
    else:
        raise ValueError(f"unknown mode {mode!r}")
    grid = []
    for i in range(block_rows):
        band = [(i - j) % L if mode == "tailbiting" else i - j for j in range(L)]
        grid.append([blocks[k] if 0 <= k <= m else None for k in band])
    return block_matrix(grid)


def blockcirculant_from_circulant(M: BinaryMatrix, c: int, n0: int, t: int) -> BinaryMatrix:
    """Reindex a (c*t) x (n0*t) circulant-grid matrix to block-circulant form.

    Input row a*t + u, column b*t + w moves to row u*c + a, column w*n0 + b.
    When every t x t grid cell of M is a circulant, the result is block
    circulant with c x n0 blocks, hence quasi-cyclic with shifting
    constraint n0.
    """
    if M.rows != c * t or M.cols != n0 * t:
        raise ValueError("dimensions do not factor as (c*t) x (n0*t)")
    rows = []
    for u in range(t):
        for a in range(c):
            src = M.row_bits[a * t + u]
            bits = 0
            for b in range(n0):
                for w in range(t):
                    if (src >> (b * t + w)) & 1:
                        bits |= 1 << (w * n0 + b)
            rows.append(bits)
    return BinaryMatrix(M.rows, M.cols, rows)


def hagiwara_css_label_matrix() -> BinaryMatrix:
    """The 42 x 84 CSS label matrix of the Hagiwara-Imai quasi-cyclic pair."""
    hc = qc_from_exponents(
        ExponentMatrix.from_rows(HAGIWARA_EXPONENTS_C, HAGIWARA_BLOCK_SIZE)
    )
    hd = qc_from_exponents(
        ExponentMatrix.from_rows(HAGIWARA_EXPONENTS_D, HAGIWARA_BLOCK_SIZE)
    )
    return css_matrix(hc, hd)
