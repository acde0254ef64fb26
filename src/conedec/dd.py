"""Double description: extreme rays of a pointed cone {v : A v >= 0}.

The input system must contain the n nonnegativity rows e_i (so the cone
lives in the nonnegative orthant and is pointed).  The orthant's unit rays
seed the algorithm; remaining inequalities are inserted one at a time and
surviving rays are recombined across the new hyperplane using the
combinatorial adjacency test.  All arithmetic is on Python integers; rays
come out as primitive integer vectors.

Insertion order: the non-unit rows sorted by their support indices, largest
first (colex order of the supports), ties broken by the row tuple.  The
order depends only on the set of rows, not on their order in the input.  On
a banded system such as a terminated spatially-coupled code it sweeps the
band from one end, which keeps the intermediate ray set small: the SC L=4
vertex census peaks at its 548 output rays, where support-size order
reached 1280.

The adjacency test is bit-parallel (Fukuda & Prodon, "Double description
method revisited", 1996).  A ray keeps its index for life, and `live` is
the bitset of the current rays.  Each processed row k keeps tight[k], the
bitset of the rays tight on it; a new ray's bits go in once, after the
insertion that made it, and a dead ray's bits stay and are masked off by
`live`.  A (+, -) pair whose common tight rows z number at least dim - 2 is
adjacent iff common = live & AND_{k in z} tight[k] is exactly the pair, so
the test costs |z| big-integer ANDs (stopping once only the pair is left)
instead of a scan of every ray.

Witness memo: common always holds the pair, so the pair is not adjacent iff
common ⊋ pair, that is iff some live ray w outside the pair has z ⊆
masks[w] (the rows tight at w).  Such a w is a non-adjacency witness.
Within one insertion neither `live` nor the mask of a live ray changes
while pairs are tested (rays die and new rays join after the pair loop),
so a witness found for one pair stays a live ray with the same mask for
every later pair of that insertion.  Each insertion keeps its MEMO most
recent witnesses, the lowest ray of common ^ pair from each pair the AND
chain rejects, and tests a pair against them before running the chain: a
memo hit rejects exactly the pairs the chain would reject, so the rays made
are the same.  One DEBUG line per call reports the insertions, the peak
intermediate ray count, the adjacency tests, the rays out and the memo
hits (the tests minus the hits are the AND chains run).

The final ray set does not depend on the insertion order (it is the unique
set of extreme rays), nor on the memo (which makes the chain's decision),
so neither can change the output; both only change the work done.
"""

from __future__ import annotations

import logging
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

logger = logging.getLogger(__name__)

MEMO = 4  # non-adjacency witnesses kept per insertion


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g > 1:
        return tuple([x // g for x in v])
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
    of the colex order; the result must not change.
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
        # Colex: the support indices, largest first; then the row itself.
        others.sort(key=lambda t: ([i for i in range(dim - 1, -1, -1) if t[1][i]], t[1]))

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
    hits = 0  # of those, pairs the witness memo rejects

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
        # Recent non-adjacency witnesses (w, ~masks[w]), newest first.
        memo: list[tuple[int, int]] = []
        for ip, dp in pos:
            mp, rp = masks[ip], rays[ip]
            for im, dm in neg:
                z = mp & masks[im]
                if z.bit_count() < need:
                    continue
                tests += 1
                # Adjacent iff no other live ray is tight on every row of z.
                for w, off in memo:
                    if not z & off and w != ip and w != im:
                        hits += 1
                        break
                else:
                    pair = (1 << ip) | (1 << im)
                    common, rest = live, z
                    while rest:
                        low = rest & -rest
                        common &= tight[low.bit_length() - 1]
                        if common == pair:
                            break
                        rest ^= low
                    if common != pair:
                        extra = common ^ pair
                        w = (extra & -extra).bit_length() - 1
                        memo.insert(0, (w, ~masks[w]))
                        del memo[MEMO:]
                        continue
                    j = len(rays)
                    rays.append(primitive([dp * y - dm * x for x, y in zip(rp, rays[im])]))
                    masks.append(z | bit)
                    born.append(j)
        if born:
            # The new rays, indices base.., join tight[] and `live` after the
            # pair loop: one small bitset per row, shifted in once.
            base = born[0]
            live |= ((1 << len(born)) - 1) << base
            acc = [0] * len(tight)
            for j in born:
                jb = 1 << (j - base)
                rest = masks[j]
                while rest:
                    low = rest & -rest
                    acc[low.bit_length() - 1] |= jb
                    rest ^= low
            for r, bits in enumerate(acc):
                if bits:
                    tight[r] |= bits << base
        for i, _ in neg:
            live ^= 1 << i
            rays[i] = None
        alive = [i for i, _ in pos] + zero + born
        peak = max(peak, len(alive))

    out = sorted({rays[i] for i in alive})
    logger.debug(
        "extreme_rays_int: %d insertions, peak %d rays, %d adjacency tests, %d rays out, "
        "%d memo hits",
        len(others), peak, tests, len(out), hits,
    )
    return out
