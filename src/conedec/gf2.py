"""Bit-packed GF(2) linear algebra for parity-check matrices.

Vectors and matrices store their entries as Python integers, one bit per
coordinate (bit i = coordinate i).  Everything is immutable; row reduction
works on copies.  Enumeration routines are exhaustive and exact, guarded by
explicit size caps instead of falling back to sampling.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import BoundExceeded

ENUMERATION_CAP = 24  # max log2 of any exhaustive GF(2) sweep


class BinaryVector:
    """Immutable vector over GF(2), packed into a single int."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 1:
            raise ValueError("vector length must be >= 1")
        self.n = n
        self.bits = bits & ((1 << n) - 1)

    @classmethod
    def from_bits(cls, entries: Iterable[int]) -> "BinaryVector":
        entries = list(entries)
        bits = 0
        for i, e in enumerate(entries):
            if e not in (0, 1):
                raise ValueError(f"entry {e!r} is not a bit")
            bits |= e << i
        return cls(len(entries), bits)

    @classmethod
    def from_string(cls, s: str) -> "BinaryVector":
        return cls.from_bits(int(c) for c in s.strip())

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self):
        return (self[i] for i in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryVector)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __xor__(self, other: "BinaryVector") -> "BinaryVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BinaryVector(self.n, self.bits ^ other.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def to01(self) -> str:
        return "".join(str(b) for b in self)

    def __repr__(self) -> str:
        return f"BinaryVector('{self.to01()}')"


class BinaryMatrix:
    """Immutable GF(2) matrix; each row is an int bitmask (bit i = column i).

    Duplicate rows are allowed and preserved: redundant parity checks are
    meaningful for the relaxed polytope, which depends on the representation
    rather than the code.
    """

    __slots__ = ("rows", "cols", "row_bits")

    def __init__(self, rows: int, cols: int, row_bits: Sequence[int]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if len(row_bits) != rows:
            raise ValueError("row count does not match row data")
        mask = (1 << cols) - 1
        self.rows = rows
        self.cols = cols
        self.row_bits = tuple(b & mask for b in row_bits)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryMatrix":
        if not rows:
            raise ValueError("need at least one row")
        vecs = [BinaryVector.from_bits(r) for r in rows]
        if len({v.n for v in vecs}) > 1:
            raise ValueError("ragged rows")
        return cls(len(vecs), vecs[0].n, [v.bits for v in vecs])

    def entry(self, j: int, i: int) -> int:
        if not (0 <= j < self.rows and 0 <= i < self.cols):
            raise IndexError((j, i))
        return (self.row_bits[j] >> i) & 1

    def row(self, j: int) -> BinaryVector:
        return BinaryVector(self.cols, self.row_bits[j])

    def row_support(self, j: int) -> tuple[int, ...]:
        return self.row(j).support()

    def to_lists(self) -> list[list[int]]:
        return [[self.entry(j, i) for i in range(self.cols)] for j in range(self.rows)]

    def transpose(self) -> "BinaryMatrix":
        """Scatters each row's set bits into the columns: O(weight + cols)
        big-int operations, not rows * cols entry reads."""
        cols = [0] * self.cols
        for j, bits in enumerate(self.row_bits):
            bit = 1 << j
            while bits:
                low = bits & -bits
                cols[low.bit_length() - 1] |= bit
                bits ^= low
        return BinaryMatrix(self.cols, self.rows, cols)

    def weight(self) -> int:
        return sum(b.bit_count() for b in self.row_bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_bits == other.row_bits
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.row_bits))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


def block_matrix(grid: Sequence[Sequence[BinaryMatrix | None]]) -> BinaryMatrix:
    """Assemble a matrix from a rectangular grid of blocks.

    grid[i][k] is placed at block row i, block column k; None is a zero
    block.  Blocks in one block row share a row count and blocks in one
    block column share a column count; every block row and block column
    needs at least one block, which fixes its size.
    """
    if not grid:
        raise ValueError("need at least one block row")
    widths: list[int | None] = [None] * len(grid[0])
    heights = []
    for i, brow in enumerate(grid):
        if len(brow) != len(widths):
            raise ValueError(f"block row {i} has {len(brow)} blocks, not {len(widths)}")
        height = None
        for k, B in enumerate(brow):
            if B is None:
                continue
            height = height or B.rows
            widths[k] = widths[k] or B.cols
            if B.rows != height:
                raise ValueError(f"block row {i}: blocks disagree on the row count")
            if B.cols != widths[k]:
                raise ValueError(f"block column {k}: blocks disagree on the column count")
        if height is None:
            raise ValueError(f"block row {i} has no block")
        heights.append(height)
    if None in widths:
        raise ValueError(f"block column {widths.index(None)} has no block")
    offsets = list(accumulate(widths, initial=0))
    rows = []
    for brow, height in zip(grid, heights):
        placed = [(B.row_bits, off) for B, off in zip(brow, offsets) if B is not None]
        for a in range(height):
            bits = 0
            for row_bits, off in placed:
                bits |= row_bits[a] << off
            rows.append(bits)
    return BinaryMatrix(len(rows), offsets[-1], rows)


def mat_vec_mod2(H: BinaryMatrix, v: Sequence[int]) -> BinaryVector:
    """H @ v reduced mod 2, with the dot products taken over the integers.

    Entries of v may be any nonnegative integers, not just bits.  Only the
    odd entries change a parity, so their bitmask is built once and each
    row's parity is that of its overlap with it.
    """
    if len(v) != H.cols:
        raise ValueError(f"length {len(v)} != cols {H.cols}")
    odd = 0
    for i, x in enumerate(v):
        if x & 1:
            odd |= 1 << i
    out = 0
    for j, bits in enumerate(H.row_bits):
        out |= ((bits & odd).bit_count() & 1) << j
    return BinaryVector(H.rows, out)


def gf2_row_echelon(row_bits: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2); returns (rows, pivot columns),
    both in pivot order, a row's pivot being its lowest set bit.

    The rows are inserted one at a time.  Each is cleared of the pivots
    found so far; a nonzero remainder becomes a pivot row at its lowest set
    bit, and that bit is then cleared from the other pivot rows.  The
    reduced form of a row space is unique, so the order of insertion does
    not change the result.
    """
    basis: dict[int, int] = {}  # pivot column -> its row
    for r in row_bits:
        for p, b in basis.items():
            if r >> p & 1:
                r ^= b
        if r:
            low = r & -r
            for p, b in basis.items():
                if b & low:
                    basis[p] = b ^ r  # a new value, no new key
            basis[low.bit_length() - 1] = r
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def gf2_rank(H: BinaryMatrix) -> int:
    _, pivots = gf2_row_echelon(H.row_bits)
    return len(pivots)


def gf2_nullspace_basis(H: BinaryMatrix) -> list[BinaryVector]:
    """Basis of {v : H v^T = 0} over GF(2)."""
    rows, pivots = gf2_row_echelon(H.row_bits)
    pivot_set = set(pivots)
    basis = []
    for free in range(H.cols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for r, p in zip(rows, pivots):
            if (r >> free) & 1:
                bits |= 1 << p
        basis.append(BinaryVector(H.cols, bits))
    return basis


def row_space_contains(H: BinaryMatrix, w: BinaryVector) -> bool:
    """Whether w lies in the GF(2) span of the rows of H."""
    if w.n != H.cols:
        raise ValueError("length mismatch")
    rows, pivots = gf2_row_echelon(H.row_bits)
    bits = w.bits
    for r, p in zip(rows, pivots):
        if (bits >> p) & 1:
            bits ^= r
    return bits == 0


def enumerate_codewords(H: BinaryMatrix) -> list[BinaryVector]:
    """All codewords of C(H), i.e. the GF(2) nullspace of H.

    Spans the nullspace basis, so the cost is 2^(n - rank) words; refuses
    (rather than samples) when that exceeds 2^ENUMERATION_CAP.
    """
    basis = gf2_nullspace_basis(H)
    k = len(basis)
    if k > ENUMERATION_CAP:
        raise BoundExceeded(
            f"code has 2^{k} codewords, above the 2^{ENUMERATION_CAP} enumeration cap"
        )
    words = _span([v.bits for v in basis])
    return [BinaryVector(H.cols, b) for b in sorted(words)]


def _span(basis: Sequence[int]) -> list[int]:
    # Gray-code walk over all 2^k combinations.
    k = len(basis)
    words = [0]
    cur = 0
    for g in range(1, 1 << k):
        cur ^= basis[(g & -g).bit_length() - 1]
        words.append(cur)
    return words


def enumerate_dual_words(
    H: BinaryMatrix, max_weight: int
) -> list[tuple[BinaryVector, bool]]:
    """Nonzero dual words of weight <= max_weight, tagged is-a-row-of-H.

    The search space is the GF(2) span of the rows of H (the dual code
    C(H)^perp).  The sweep is exhaustive over the span; results are sorted
    by (weight, coordinates); refuses when the span exceeds 2^ENUMERATION_CAP.
    """
    reduced, pivots = gf2_row_echelon(H.row_bits)
    if len(pivots) > ENUMERATION_CAP:
        raise BoundExceeded(
            f"dual span has 2^{len(pivots)} words, above the 2^{ENUMERATION_CAP} cap"
        )
    row_set = set(H.row_bits)
    out = []
    for bits in _span(reduced):
        if bits == 0:
            continue
        if bits.bit_count() <= max_weight:
            out.append((BinaryVector(H.cols, bits), bits in row_set))
    out.sort(key=lambda t: (t[0].weight(), t[0].to_tuple()))
    return out


def cyclic_shift(v, s: int):
    """Rotate coordinates s positions to the right (negative s: left).

    Accepts a BinaryVector or any sequence (e.g. of rationals); the return
    type matches the input.
    """
    if isinstance(v, BinaryVector):
        n = v.n
        s %= n
        if s == 0:
            return v
        bits = ((v.bits << s) | (v.bits >> (n - s))) & ((1 << n) - 1)
        return BinaryVector(n, bits)
    seq = tuple(v)
    n = len(seq)
    s %= n
    return seq[n - s :] + seq[: n - s]


def is_quasi_cyclic(H: BinaryMatrix, n0: int) -> bool:
    """True iff shifting any row n0 positions right yields another row."""
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    row_set = set(H.row_bits)
    for b in H.row_bits:
        shifted = cyclic_shift(BinaryVector(H.cols, b), n0)
        if shifted.bits not in row_set:
            return False
    return True


# --- text formats ---------------------------------------------------------


def format_dense(H: BinaryMatrix) -> str:
    lines = [f"{H.rows} {H.cols}"]
    for j in range(H.rows):
        lines.append(" ".join(str(H.entry(j, i)) for i in range(H.cols)))
    return "\n".join(lines) + "\n"


def parse_dense(text: str) -> BinaryMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        r, c = (int(x) for x in lines[0].split())
    except Exception as e:
        raise ValueError(f"bad header line: {lines[0]!r}") from e
    if len(lines) != r + 1:
        raise ValueError(f"expected {r} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = [int(x) for x in ln.split()]
        if len(entries) != c:
            raise ValueError(f"expected {c} columns, found {len(entries)}")
        rows.append(entries)
    return BinaryMatrix.from_rows(rows)


def format_alist(H: BinaryMatrix) -> str:
    """MacKay alist text: header 'n m', max degrees, degree lists, 1-based
    index lists (columns first, then rows), zero-padded to the max degree."""
    n, m = H.cols, H.rows
    col_idx = [[j + 1 for j in range(m) if H.entry(j, i)] for i in range(n)]
    row_idx = [[i + 1 for i in H.row_support(j)] for j in range(m)]
    col_deg = [len(ix) for ix in col_idx]
    row_deg = [len(ix) for ix in row_idx]
    cmax, rmax = max(col_deg), max(row_deg)
    lines = [
        f"{n} {m}",
        f"{cmax} {rmax}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    for ix in col_idx:
        lines.append(" ".join(str(i) for i in ix + [0] * (max(cmax, 1) - len(ix))))
    for ix in row_idx:
        lines.append(" ".join(str(i) for i in ix + [0] * (max(rmax, 1) - len(ix))))
    return "\n".join(lines) + "\n"


def parse_alist(text: str) -> BinaryMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        raise ValueError("alist file too short")
    try:
        n, m = (int(x) for x in lines[0].split())
        max_deg = tuple(int(x) for x in lines[1].split())
        col_deg = [int(x) for x in lines[2].split()]
        row_deg = [int(x) for x in lines[3].split()]
    except Exception as e:
        raise ValueError("bad alist header") from e
    if len(col_deg) != n or len(row_deg) != m:
        raise ValueError("alist degree lists do not match dimensions")
    if max_deg != (max(col_deg, default=0), max(row_deg, default=0)):
        raise ValueError("alist max degrees do not match the degree lists")
    if len(lines) != 4 + n + m:
        raise ValueError("alist index block has wrong length")
    row_bits = [0] * m
    for i in range(n):
        for j in _alist_indices(lines[4 + i], col_deg[i], f"column {i}"):
            if not 1 <= j <= m:
                raise ValueError(f"column {i}: row index {j} out of range")
            row_bits[j - 1] |= 1 << i
    # Validate the (redundant) row-perspective block.
    for j in range(m):
        idx = sorted(_alist_indices(lines[4 + n + j], row_deg[j], f"row {j}"))
        if idx != [i + 1 for i in range(n) if (row_bits[j] >> i) & 1]:
            raise ValueError(f"row {j}: index list inconsistent with columns")
    return BinaryMatrix(m, n, row_bits)


def _alist_indices(line: str, degree: int, where: str) -> list[int]:
    """The nonzero entries of one alist index list: its declared degree of
    them, none repeated."""
    idx = [int(x) for x in line.split() if int(x) != 0]
    if len(idx) != degree:
        raise ValueError(f"{where}: degree mismatch")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{where}: repeated index")
    return idx


def as_fraction_vector(v) -> tuple[Fraction, ...]:
    """Coerce a sequence of numbers to exact rationals (a BinaryVector
    iterates as ints)."""
    return tuple(Fraction(x) for x in v)
