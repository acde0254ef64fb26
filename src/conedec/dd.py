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

Candidate pairs: each insertion walks the smaller of the two sides ray by
ray.  For a walked ray with tight-row mask mo and t = |mo| - (dim - 2), a
ray of the other (inner) side makes a candidate pair iff it is tight on all
but at most t rows of mo.  Where the inner side is small the test is one
popcount per pair, |mo & masks[i]| >= dim - 2.  Where it is large,
`near_rays` answers it for the whole side at once with t + 1 saturating
miss counters, bit-sliced over the tight[] bitsets (one bitset per level):
each row of mo moves the inner rays it misses one level up, and the rays
that never reach level t + 1 are the candidates.  A ray misses row k iff
its bit is off in tight[k], the same fact as bit k off in its mask, so the
filter keeps exactly the pairs the popcount keeps, and the same pairs go on
to the witness memo and the AND chain.  The filter costs about |mo| (t + 1)
big-integer operations against one popcount per inner ray, and it runs
where |inner| > FILTER_RATIO |mo| (t + 1); the factor leaves the loop to
the small 3x7 and 7x7 systems, where one popcount per pair is cheaper than
its bookkeeping.  It pays on the [15,11] cone, whose late insertions put
1177-2815 rays on one side against 50-57 on the other: one popcount per
pair would test 818,883 pairs there, of which 15,821 pass.

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
FILTER_RATIO = 4  # filter when |inner| > FILTER_RATIO * |mo| * (t + 1)


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


def near_rays(inner: int, rows: int, t: int, tight: Sequence[int]) -> int:
    """The rays of the bitset `inner` tight on all but at most t of the
    rows in the bitset `rows` (tight[r] is the bitset of rays tight on row
    r), by t + 1 saturating miss counters; t >= 0.

    lv[j] holds the rays that miss at least j + 1 of the rows read so far.
    A row's misses, inner & ~tight[r], move each of its rays one level up,
    and a ray already in lv[t] stays there.  Once lv[t] holds every ray of
    `inner` none can pass, and the walk stops."""
    lv = [0] * (t + 1)
    while rows:
        low = rows & -rows
        miss = inner & ~tight[low.bit_length() - 1]
        rows ^= low
        if miss:
            for j in range(t, 0, -1):
                lv[j] |= lv[j - 1] & miss
            lv[0] |= miss
            if lv[t] == inner:
                return 0
    return inner & ~lv[t]


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
                neg.append((i, -d))
            else:
                zero.append(i)
                masks[i] |= bit
                tight[k] |= 1 << i
        # Walk the smaller side; each pair's new ray is |d_inner| * r_outer
        # + |d_outer| * r_inner, whichever side is walked.
        outer, inner = (neg, pos) if len(neg) < len(pos) else (pos, neg)
        inner_d: dict[int, int] | None = None  # built for the first filter
        born = []
        # Recent non-adjacency witnesses (w, ~masks[w]), newest first.
        memo: list[tuple[int, int]] = []
        for io, do in outer:
            mo, ro = masks[io], rays[io]
            size = mo.bit_count()
            t = size - need  # >= 1: an extreme ray is tight on dim - 1 rows
            if len(inner) > FILTER_RATIO * size * (t + 1):
                if inner_d is None:
                    inner_d = dict(inner)
                    outer_bits = 0
                    for i, _ in outer:
                        outer_bits |= 1 << i
                    # The live rays off the hyperplane, less the outer side.
                    inner_bits = (live & ~tight[k]) ^ outer_bits
                cand = near_rays(inner_bits, mo, t, tight)
                pairs = []
                while cand:
                    low = cand & -cand
                    i = low.bit_length() - 1
                    pairs.append((i, inner_d[i]))
                    cand ^= low
            else:
                pairs = inner
            for ii, di in pairs:
                z = mo & masks[ii]
                if z.bit_count() < need:
                    continue
                tests += 1
                # Adjacent iff no other live ray is tight on every row of z.
                for w, off in memo:
                    if not z & off and w != io and w != ii:
                        hits += 1
                        break
                else:
                    pair = (1 << io) | (1 << ii)
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
                    rays.append(primitive([di * x + do * y for x, y in zip(ro, rays[ii])]))
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
