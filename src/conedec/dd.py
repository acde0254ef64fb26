"""Double description: extreme rays of a pointed cone {v : A v >= 0}.

The input system must contain the n nonnegativity rows e_i (so the cone
lives in the nonnegative orthant and is pointed).  The orthant's unit rays
seed the algorithm; remaining inequalities are inserted one at a time,
sorted by increasing support size, and surviving rays are recombined across
the new hyperplane using the combinatorial adjacency test.  All arithmetic
is on Python integers; rays come out as primitive integer vectors.

The adjacency test is bit-parallel (Fukuda & Prodon, "Double description
method revisited", 1996).  A ray keeps its index for life, and `live` is
the bitset of the current rays.  Each processed row k keeps tight[k], the
bitset of the rays tight on it; a new ray's bits go in once, when it is
made, and a dead ray's bits stay and are masked off by `live`.  A (+, -)
pair whose common tight rows z number at least dim - 2 is adjacent iff
live & AND_{k in z} tight[k] is exactly the pair, so the test costs |z|
big-integer ANDs (stopping once only the pair is left) instead of a scan
of every ray.  One DEBUG line per call reports the insertions, the peak
intermediate ray count, the adjacency tests and the rays out.

The final ray set is insertion-order independent (it is the unique set of
extreme rays); the sort is a heuristic that keeps intermediate ray counts
small.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

logger = logging.getLogger(__name__)


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

    The package's one rule for clearing denominators.  An int or a
    Fraction is read as it is; any other entry, a float say, is converted
    to a Fraction first."""
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*[x.denominator for x in fr])
    return primitive([x.numerator * (den // x.denominator) for x in fr])


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

    # Ray i keeps index i for life; `alive` lists the current rays and
    # `live` is their bitset.  masks[i] is the bitset of processed rows tight
    # at ray i, tight[k] the bitset of rays (dead ones too) tight on row k.
    rays: list[tuple[int, ...] | None] = [
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)
    ]
    masks = [0] * dim
    tight = [0] * len(rows)
    for coord, k in unit_row.items():
        tight[k] = ((1 << dim) - 1) ^ (1 << coord)
        for i in range(dim):
            if i != coord:
                masks[i] |= 1 << k
    alive = list(range(dim))
    live = (1 << dim) - 1
    need = dim - 2
    peak = dim
    tests = 0  # pairs that pass the count test

    for k, a in others:
        bit = 1 << k
        pos, neg, zero = [], [], []
        for i in alive:
            d = sum(map(mul, a, rays[i]))
            if d > 0:
                pos.append((i, d))
            elif d < 0:
                neg.append((i, d))
            else:
                zero.append(i)
                masks[i] |= bit
                tight[k] |= 1 << i
        born = []
        for ip, dp in pos:
            mp, rp = masks[ip], rays[ip]
            for im, dm in neg:
                z = mp & masks[im]
                if z.bit_count() < need:
                    continue
                tests += 1
                # Adjacent iff no other live ray is tight on every row of z.
                pair = (1 << ip) | (1 << im)
                common, rest = live, z
                while rest:
                    low = rest & -rest
                    common &= tight[low.bit_length() - 1]
                    if common == pair:
                        break
                    rest ^= low
                if common != pair:
                    continue
                j = len(rays)
                rm = rays[im]
                rays.append(primitive([dp * y - dm * x for x, y in zip(rp, rm)]))
                masks.append(z | bit)
                born.append(j)
                rest = z | bit
                while rest:
                    low = rest & -rest
                    tight[low.bit_length() - 1] |= 1 << j
                    rest ^= low
        for i, _ in neg:
            live ^= 1 << i
            rays[i] = None
        for j in born:
            live |= 1 << j
        alive = [i for i, _ in pos] + zero + born
        peak = max(peak, len(alive))

    out = sorted({rays[i] for i in alive})
    logger.debug(
        "extreme_rays_int: %d insertions, peak %d rays, %d adjacency tests, %d rays out",
        len(others), peak, tests, len(out),
    )
    return out
