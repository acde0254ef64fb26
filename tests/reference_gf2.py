"""The GF(2) routines that gf2 and lpdecode replaced, kept as their test
oracles.

gf2_row_echelon is the per-column row reduction that row insertion
replaced.  For each column in turn it looks for an unused row with that
bit set, swaps it up, and clears the bit from every other row.  Its (rows,
pivots) are the reduced row echelon form that gf2.gf2_row_echelon must
reproduce exactly.

last_coordinate_rows is the top-bit elimination that lpdecode's
_last_coordinate_rows replaced with gf2.gf2_row_echelon on reversed,
tagged rows.  Each row, tagged with its index, is reduced by the basis
rows whose top bit it holds until its top bit is new.  Its keys, the
coordinates where some dual word ends, are the keys that map must
have; its row sets may differ.

mat_vec_mod2 is the per-entry parity check that the odd-entry bitmask
replaced: each row sums the entries of v on its support over the integers
and keeps the low bit.
"""

from __future__ import annotations

from typing import Sequence

from conedec.gf2 import BinaryMatrix, BinaryVector


def gf2_row_echelon(row_bits: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over GF(2); returns (rows, pivot columns)."""
    rows = [b for b in row_bits]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(rows)):
            if (rows[i] >> c) & 1:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[: len(pivots)], pivots


def last_coordinate_rows(row_bits: Sequence[int]) -> dict[int, int]:
    """{i: m} for each coordinate i that the columns after it do not span,
    with m a set of rows (bit j = row j) whose sum has i as its last
    coordinate."""
    basis: dict[int, tuple[int, int]] = {}
    for j, word in enumerate(row_bits):
        rows = 1 << j
        while word:
            top = word.bit_length() - 1
            if top not in basis:
                basis[top] = (word, rows)
                break
            word ^= basis[top][0]
            rows ^= basis[top][1]
    return {top: rows for top, (_, rows) in basis.items()}


def mat_vec_mod2(H: BinaryMatrix, v: Sequence[int]) -> BinaryVector:
    """H @ v reduced mod 2, with the dot products taken over the integers."""
    if len(v) != H.cols:
        raise ValueError(f"length {len(v)} != cols {H.cols}")
    out = 0
    for j, bits in enumerate(H.row_bits):
        s = 0
        while bits:
            i = (bits & -bits).bit_length() - 1
            s += v[i]
            bits &= bits - 1
        out |= (s & 1) << j
    return BinaryVector(H.rows, out)
