"""The pseudocodeword box walk that saved per-row state replaced, kept as
the ordered test oracle.

reference_enumerate_pseudocodewords increments and decrements each row's
support sum and remaining-column count per value, and rebuilds each row's
2 * max demand from the assigned coordinates after every value it tries.
Its output list, order included, is the one
pcw.enumerate_pseudocodewords must reproduce exactly.
"""

from __future__ import annotations

from conedec.errors import BoundExceeded
from conedec.gf2 import BinaryMatrix
from conedec.pcw import BOX_BUDGET, Pseudocodeword


def reference_enumerate_pseudocodewords(
    H: BinaryMatrix, bound: int, budget: int = BOX_BUDGET
) -> list[Pseudocodeword]:
    n = H.cols
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if (bound + 1) ** n > budget:
        raise BoundExceeded(
            f"box sweep of ({bound + 1})^{n} points exceeds budget {budget}"
        )
    if bound == 0:
        return [Pseudocodeword((0,) * n)]

    supports = [H.row_support(j) for j in range(H.rows)]
    rows_at = [[] for _ in range(n)]  # rows whose support contains column i
    last_col = [max(s) if s else -1 for s in supports]
    for j, sup in enumerate(supports):
        for i in sup:
            rows_at[i].append(j)

    found: list[Pseudocodeword] = []
    v = [0] * n
    psum = [0] * H.rows
    demand = [0] * H.rows
    remaining = [len(s) for s in supports]

    def walk(i: int) -> None:
        if i == n:
            found.append(Pseudocodeword(tuple(v)))
            return
        for x in range(bound + 1):
            v[i] = x
            ok = True
            for j in rows_at[i]:
                psum[j] += x
                remaining[j] -= 1
                if 2 * x > demand[j]:
                    demand[j] = 2 * x
            for j in rows_at[i]:
                if psum[j] + bound * remaining[j] < demand[j]:
                    ok = False
                    break
                if i == last_col[j] and psum[j] % 2:
                    ok = False
                    break
            if ok:
                walk(i + 1)
            for j in rows_at[i]:
                psum[j] -= x
                remaining[j] += 1
            # demand is not decremented incrementally; recompute per row
            for j in rows_at[i]:
                demand[j] = max(
                    (2 * v[k] for k in supports[j] if k < i), default=0
                )
        v[i] = 0

    walk(0)
    return found
