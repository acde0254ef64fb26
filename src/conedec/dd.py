"""Double description: extreme rays of a pointed cone {v : A v >= 0}.

The input system must contain the n nonnegativity rows e_i (so the cone
lives in the nonnegative orthant and is pointed).  The orthant's unit rays
seed the algorithm; remaining inequalities are inserted one at a time,
sorted by increasing support size, and surviving rays are recombined across
the new hyperplane using the combinatorial adjacency test.  All arithmetic
is on Python integers; rays come out as primitive integer vectors.

The final ray set is insertion-order independent (it is the unique set of
extreme rays); the sort is a heuristic that keeps intermediate ray counts
small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g > 1:
        return tuple(x // g for x in v)
    return tuple(v)


def integerize(row: Sequence) -> tuple[int, ...]:
    """Scale a rational row by a positive factor to a primitive integer row.

    The package's one rule for clearing denominators."""
    fr = [Fraction(x) for x in row]
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return primitive([int(x * lcm) for x in fr])


def extreme_rays_int(
    dim: int, rows: Sequence[Sequence[int]], sort_rows: bool = True
) -> list[tuple[int, ...]]:
    """Extreme rays of {v >= 0 : a . v >= 0 for all rows a}, sorted.

    sort_rows=False processes the inequalities in the given order instead
    of the support-size heuristic; the result must not change.
    """
    unit_row: dict[int, int] = {}
    others: list[tuple[int, tuple[int, ...]]] = []
    for k, a in enumerate(rows):
        a = tuple(a)
        nz = [i for i, x in enumerate(a) if x]
        if len(nz) == 1 and a[nz[0]] > 0 and nz[0] not in unit_row:
            unit_row[nz[0]] = k
        else:
            others.append((k, a))
    if len(unit_row) != dim:
        missing = [i for i in range(dim) if i not in unit_row]
        raise ValueError(f"system lacks nonnegativity rows for coordinates {missing}")
    if sort_rows:
        others.sort(key=lambda t: (sum(1 for x in t[1] if x), t[1]))

    rays: list[tuple[int, ...]] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    masks: list[int] = []
    for i in range(dim):
        m = 0
        for coord, k in unit_row.items():
            if coord != i:
                m |= 1 << k
        masks.append(m)

    for k, a in others:
        bit = 1 << k
        dots = [sum(x * y for x, y in zip(a, r)) for r in rays]
        neg = [i for i, d in enumerate(dots) if d < 0]
        if not neg:
            for i, d in enumerate(dots):
                if d == 0:
                    masks[i] |= bit
            continue
        pos = [i for i, d in enumerate(dots) if d > 0]
        zero = [i for i, d in enumerate(dots) if d == 0]
        new_rays = [rays[i] for i in pos] + [rays[i] for i in zero]
        new_masks = [masks[i] for i in pos] + [masks[i] | bit for i in zero]
        need = dim - 2
        nrays = len(rays)
        for ip in pos:
            mp, dp = masks[ip], dots[ip]
            rp = rays[ip]
            for im in neg:
                z = mp & masks[im]
                if z.bit_count() < need:
                    continue
                adjacent = True
                for ir in range(nrays):
                    if ir != ip and ir != im and (masks[ir] & z) == z:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                dm = dots[im]
                rm = rays[im]
                w = primitive([dp * rm[j] - dm * rp[j] for j in range(dim)])
                new_rays.append(w)
                new_masks.append(z | bit)
        rays, masks = new_rays, new_masks

    # Combination rays from distinct adjacent pairs are distinct, but dedup
    # defensively before returning a canonical order.
    return sorted(set(rays))
