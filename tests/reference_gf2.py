"""The per-column GF(2) row reduction that row insertion replaced in
gf2.gf2_row_echelon, kept as its test oracle.

For each column in turn it looks for an unused row with that bit set,
swaps it up, and clears the bit from every other row.  Its (rows, pivots)
are the reduced row echelon form that gf2_row_echelon must reproduce
exactly.
"""

from __future__ import annotations

from typing import Sequence


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
