"""The scan-based double description that the bitset adjacency test
replaced, kept as a test oracle, a brute-force basis oracle, and the
Fraction-based integerize.

reference_extreme_rays_int decides each (+, -) pair's adjacency by scanning
every current ray for one whose tight-row mask contains the pair's common
tight rows.  Its output is the list dd.extreme_rays_int must reproduce
exactly.

basis_extreme_rays finds the extreme rays without any incremental
structure: every (dim - 1)-subset of rows of rank dim - 1 has a
one-dimensional kernel, and a kernel direction of either sign that
satisfies every row is an extreme ray.  It is exponential in the row count
and meant for dim <= 6.

reference_integerize is dd.integerize as it was before it read int and
Fraction entries natively: every entry goes through Fraction, and the row
is scaled by the running lcm of the denominators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from conedec.dd import integerize, primitive


def reference_integerize(row: Sequence) -> tuple[int, ...]:
    """Scale a rational row by a positive factor to a primitive integer row."""
    fr = [Fraction(x) for x in row]
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return primitive([int(x * lcm) for x in fr])


def reference_extreme_rays_int(
    dim: int, rows: Sequence[Sequence[int]], sort_rows: bool = True
) -> list[tuple[int, ...]]:
    """Extreme rays of {v >= 0 : a . v >= 0 for all rows a}, sorted."""
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

    return sorted(set(rays))


def _kernel_direction(sub: Sequence[Sequence[int]], dim: int) -> tuple[int, ...] | None:
    """A primitive integer spanning vector of the kernel of `sub`, or None
    unless the kernel is one-dimensional."""
    m = [[Fraction(x) for x in row] for row in sub]
    pivots: list[int] = []
    r = 0
    for c in range(dim):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if r != dim - 1:
        return None
    (free,) = (c for c in range(dim) if c not in pivots)
    v = [Fraction(0)] * dim
    v[free] = Fraction(1)
    for i, c in enumerate(pivots):
        v[c] = -m[i][free]
    return integerize(v)


def basis_extreme_rays(dim: int, rows: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """Extreme rays of {v : a . v >= 0 for all rows a} by brute force over
    the (dim - 1)-subsets of rows; the cone must be pointed."""
    rows = [tuple(a) for a in rows]
    found: set[tuple[int, ...]] = set()
    for sub in combinations(dict.fromkeys(rows), dim - 1):
        d = _kernel_direction(sub, dim)
        if d is None:
            continue
        for v in (d, tuple(-x for x in d)):
            if all(sum(x * y for x, y in zip(a, v)) >= 0 for a in rows):
                found.add(v)
    return found
