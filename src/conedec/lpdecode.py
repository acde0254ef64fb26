"""LP decoding over the relaxed polytope, ML decoding on the syndrome
trellis of H, both its ends read from gf2_row_echelon, BSC simulation, and
the shift-equivariance experiment for quasi-cyclic representations.

Every seeded Monte Carlo run, with or without shift orbits, draws its
errors from one stream, bsc_errors(n, p, trials, seed).

LLRs are computed in double precision and rationalized (continued-fraction
approximation, denominator cap 10^6) into one primitive integer vector c
and a positive Fraction unit, with unit * c_i the approximation of gamma_i,
so the optimizer itself never sees a float.  A bounded cache keyed by the
set of distinct values holds each value's c_i and the unit: a BSC vector
has at most two values, so its rationalization is a lookup.  Both decoders
run on c (scaling by unit > 0 keeps every comparison), and lp_decode builds
Fractions only for its result: the optimum, read off the simplex, and the
objective, c . x scaled by unit once.

A decode reports status "codeword" / "fractional" when the optimum is the
unique vertex of the optimal face, and "tie" when that face contains more
than one vertex; the tie test is geometric, so it is invariant under
coordinate rotations of a quasi-cyclic instance.

One record per H holds what the decoders derive from H, each part built
when first read: lp, the relaxed polytope compiled from H's sparse rows
(polytope.relaxed_rows) into an ExactSimplex at its slack basis, whose rows
every decode on H shares; memo, the answers its basis alone fixes (see
simplex); and trellis, ml_decode's plan.  The LP is very degenerate, and on
the BSC every LLR has one magnitude, so decodes meet few memo keys: over
2000 trials, [15,11] at p = 0.05 met 962 ratio-test and 181 tie keys,
Hagiwara at p = 0.01 met 953 and 499, and a decode whose keys are all known
replays its pivots.  Records are cached least recently used first out until
their rows, memo entries and trellis steps fit in CACHE_CAP; the record in
use stays, its memo emptied if it alone is over.

Hard-decision certificate (Feldman, Wainwright & Karger, IEEE T-IT 2005):
when no rationalized LLR is 0 and the hard decision y (y_i = 1 iff
gamma_i < 0) is a codeword, both decoders return y without an LP or a
trellis walk.  On [0, 1]^n, gamma . x >= sum of the negative gamma_i, with
equality only at x = y, so y is the unique LP optimum and the unique ML
word.  The size caps are checked first, so they raise as before.
"""

from __future__ import annotations

import functools
import logging
import math
import random
from collections import OrderedDict
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import BoundExceeded
from .gf2 import (
    ENUMERATION_CAP,
    BinaryMatrix,
    BinaryVector,
    cyclic_shift,
    gf2_row_echelon,
    is_quasi_cyclic,
)
from .polytope import relaxed_rows
from .record import record
from .simplex import _ONE, _ZERO, ExactSimplex

LLR_DENOMINATOR_CAP = 10**6

# Compiled rows, memo entries and trellis steps of all records together.
# Rows weigh most: the 163,871 rows of [31,26] hold 85.7 MB (tracemalloc,
# CPython 3.11), some 523 bytes each, so a full cache holds at most 8.6 MB;
# a memo entry takes 200 (on [15,11]) to 336 bytes (Hagiwara), a step 88.
CACHE_CAP = 1 << 14

logger = logging.getLogger(__name__)

LlrVector = Sequence[float]


def llr_bsc(w: BinaryVector, p: float) -> list[float]:
    """Per-position log-likelihood ratios for a BSC with crossover p.

    gamma_i = +log((1-p)/p) for a received 0 and the negation for a 1;
    p = 1/2 gives the all-zero (uninformative) vector.  A p so close to 0
    that the LLR overflows (a subnormal float) is refused, as is p outside
    (0, 1).
    """
    if not 0 < p < 1:
        raise ValueError("crossover probability must be in (0, 1)")
    g = math.log((1 - p) / p)
    if not math.isfinite(g):
        raise ValueError(f"crossover probability {p!r} gives an infinite LLR")
    return [-g if b else g for b in w]


def rationalize_llr(gamma: LlrVector) -> tuple[tuple[int, ...], Fraction]:
    """(c, unit): the rationalized LLRs as one primitive integer vector c
    and a Fraction unit > 0, so that unit * c_i is
    Fraction(gamma_i).limit_denominator(LLR_DENOMINATOR_CAP).  unit is 1
    when every rationalized LLR is 0."""
    scaled, unit = _scaled_values(frozenset(gamma))
    return tuple(map(scaled.__getitem__, gamma)), unit


# A BSC run at one p meets three value sets (all +L, all -L, both).  An
# entry of Gaussian Hagiwara LLRs (84 values) holds about 27 KB
# (tracemalloc, CPython 3.11), so a full cache some 1.7 MB.
@functools.lru_cache(maxsize=64)
def _scaled_values(values: frozenset) -> tuple[dict, Fraction]:
    """({x: c_x}, unit) for the distinct values of an LLR vector.  Equal
    numbers of any type (1, 1.0, Fraction(1)) are one value and have the
    same approximation; NaN and inf raise and are not cached."""
    pq = [(x, Fraction(x).limit_denominator(LLR_DENOMINATOR_CAP)) for x in values]
    q = math.lcm(*[r.denominator for _, r in pq])
    p = {x: r.numerator * (q // r.denominator) for x, r in pq}
    g = math.gcd(*p.values())
    if not g:
        return p, _ONE
    return {x: a // g for x, a in p.items()}, Fraction(g, q)


def _certified_codeword(H: BinaryMatrix, c: Sequence[int]) -> int | None:
    """The hard decision y of c (bit i = 1 iff c_i < 0) when no c_i is 0
    and y is a codeword; y is then the unique minimizer of c . x over
    [0, 1]^n and so over the relaxed polytope and the code.  Else None."""
    y = 0
    for i, a in enumerate(c):
        if a < 0:
            y |= 1 << i
        elif not a:
            return None
    if y and any((r & y).bit_count() & 1 for r in H.row_bits):
        return None
    return y


@record
class DecodeResult:
    """An LP optimum, its objective against the rationalized LLRs, whether it
    is integral, and its status: "codeword", "fractional" or "tie"."""

    optimum: tuple[Fraction, ...]
    objective: Fraction  # against the rationalized LLRs
    integral: bool
    status: str  # "codeword" | "fractional" | "tie"

    @property
    def recovers_zero(self) -> bool:
        """The Monte Carlo success rule over all-zero transmission: a unique
        decode to the zero word.  Ties, fractional optima and other
        codewords are failures."""
        return self.status == "codeword" and not any(self.optimum)

    def as_binary(self) -> BinaryVector:
        if not self.integral:
            raise ValueError("optimum is fractional")
        return BinaryVector.from_bits(int(x) for x in self.optimum)


class _Record:
    """What lp_decode and ml_decode derive from one H."""

    def __init__(self, H: BinaryMatrix):
        self.H = H

    @functools.cached_property
    def lp(self) -> ExactSimplex:
        """The relaxed polytope of H at its slack basis, zero objective; the
        order of relaxed_rows(H) fixes Bland's path and so a tie's vertex."""
        A, b = zip(*relaxed_rows(self.H))
        lp = ExactSimplex(self.H.cols, A, b, [0] * self.H.cols)
        _fit(self, lp.m)
        return lp

    # The ratio-test and tie-check answers of lp, keyed as solve keys them.
    memo = functools.cached_property(lambda self: {})

    @functools.cached_property
    def trellis(self) -> tuple[tuple[tuple[int, int | None], ...], int]:
        """The syndrome trellis of H: (steps, width).  steps[i] is (h, m),
        with h column i of H as a syndrome and m the rows that sum to a
        dual word ending at i (_last_coordinate_rows), None when none ends
        there; width is log2 of the largest state count."""
        last = _last_coordinate_rows(self.H)
        first = set(gf2_row_echelon(self.H.row_bits)[1])
        # Some dual word starts at i iff i is an echelon pivot (in first), and
        # some ends at i iff i is in last.  The state count doubles where none
        # ends, as the later columns span column i (both bits stay live), and
        # halves where none starts, as the earlier ones do (states merge).
        width = max(accumulate((i not in last) - (i not in first) for i in range(self.H.cols)))
        steps = tuple(zip(self.H.transpose().row_bits, map(last.get, range(self.H.cols))))
        _fit(self, len(steps))
        return steps, width

    def sizes(self) -> tuple[int, int, int]:
        """(compiled rows, memo entries, trellis steps) of the parts built."""
        d = vars(self)
        return (d["lp"].m if "lp" in d else 0, len(d.get("memo", ())),
                len(d["trellis"][0]) if "trellis" in d else 0)


_records: OrderedDict[BinaryMatrix, _Record] = OrderedDict()


def _record(H: BinaryMatrix) -> _Record:
    """H's record, now the newest; a new one is cached with its first part."""
    rec = _records.get(H)
    if rec is None:
        return _Record(H)
    _records.move_to_end(H)
    return rec


def _fit(rec: _Record, grown: int = 0) -> None:
    """Keep rec, the record in use, as the newest, with `grown` entries of a
    part being built on top of its sizes; evict the least recently used
    others until all fit in CACHE_CAP, then empty rec's memo if not."""
    _records[rec.H] = rec
    held = grown + sum(sum(r.sizes()) for r in _records.values())
    while held > CACHE_CAP and len(_records) > 1:
        old = _records.popitem(last=False)[1]
        rows, memo, steps = old.sizes()
        held -= rows + memo + steps
        logger.debug("record cache: evicted %r, %d rows, %d memo entries", old.H, rows, memo)
    if held > CACHE_CAP and rec.memo:
        logger.debug("record cache: emptied the memo of %r, %d rows, %d memo entries",
                     rec.H, *rec.sizes()[:2])
        rec.memo.clear()


def lp_decode(H: BinaryMatrix, gamma: LlrVector) -> DecodeResult:
    """min gamma . y over the relaxed polytope of H, solved exactly.

    The returned point is always a vertex (a basic solution of the
    inequality system).  status is "tie" whenever the optimal face has more
    than one vertex; otherwise "codeword" for an integral parity-valid
    optimum and "fractional" for the rest.  A certified hard decision (see
    the module docstring) is returned without solving.
    """
    if len(gamma) != H.cols:
        raise ValueError(f"LLR length {len(gamma)} != cols {H.cols}")
    c, unit = rationalize_llr(gamma)
    rec = _record(H)
    system = rec.lp  # raises over the cap, certified or not
    hard = _certified_codeword(H, c)
    if hard is not None:
        logger.debug("lp_decode: hard decision of weight %d is a codeword, no LP", hard.bit_count())
        # y_i = 1 iff c_i < 0, so c . y sums the negative c_i; the zero
        # word, the usual one, costs 0.
        cost = sum([a for a in c if a < 0])
        return DecodeResult(optimum=tuple([_ONE if a < 0 else _ZERO for a in c]),
                            objective=unit * cost if cost else _ZERO, integral=True,
                            status="codeword")
    sx, memo = system.with_objective(c), rec.memo
    held = len(memo)
    res = sx.solve(memo)
    if len(memo) > held:
        _fit(rec)
    # Only basic structurals can be nonzero, x_j = core[j][-1] / d in [0, 1].
    d = sx.d
    integral = all(row[-1] in (0, d) for row in sx.core.values())
    if not res.unique:
        status = "tie"
    elif integral:
        y = sum([1 << j for j, row in sx.core.items() if row[-1]])
        if any((r & y).bit_count() & 1 for r in H.row_bits):
            raise AssertionError("integral optimum violates parity")
        status = "codeword"
    else:
        status = "fractional"
    return DecodeResult(optimum=res.x, objective=unit * res.objective, integral=integral,
                        status=status)


def ml_decode(H: BinaryMatrix, gamma: LlrVector) -> BinaryVector:
    """argmin of gamma . c over all codewords; ties break to the
    lexicographically smallest coordinate tuple.

    Min-sum on the syndrome trellis of H (Wolf, IEEE T-IT 1978), whose state
    after coordinate i is the syndrome of c_0..c_i.  Only the states that
    are reachable from 0 and can still reach 0 are kept: that is the
    minimal BCJR trellis (McEliece, IEEE T-IT 1996), with at most
    min(2^k, 2^(n-k)) states per level.  Its widths are known before the
    walk from where dual words start and end, both read from
    gf2_row_echelon once per H (its record's trellis), and one above
    2^ENUMERATION_CAP raises BoundExceeded.  Each state keeps its least
    (cost, prefix) pair, the prefix an int with c_0 as its top bit, so that
    int order is tuple order on prefixes of one length.  A certified hard
    decision (see the module docstring) is returned without the walk.
    """
    n = H.cols
    if len(gamma) != n:
        raise ValueError(f"LLR length {len(gamma)} != cols {n}")
    # unit > 0 scales every cost alike, so it keeps their order.
    w, _ = rationalize_llr(gamma)
    steps, width = _record(H).trellis
    if width > ENUMERATION_CAP:
        raise BoundExceeded(
            f"ML trellis needs 2^{width} states, above the 2^{ENUMERATION_CAP} cap"
        )
    # After the width check, so the cap holds for certified words too.
    hard = _certified_codeword(H, w)
    if hard is not None:
        logger.debug("ml_decode: hard decision of weight %d is a codeword, no trellis", hard.bit_count())
        return BinaryVector(n, hard)
    states = {0: (0, 0)}  # syndrome -> (cost, prefix)
    for (h, m), wi in zip(steps, w):
        nxt = {}
        for s, (cost, path) in states.items():
            # The rows in m sum to a dual word whose last coordinate is i, so
            # only a syndrome with even parity over m can still reach 0.
            for b in (0, 1) if m is None else ((s & m).bit_count() & 1,):
                t, key = s ^ h * b, (cost + wi * b, path << 1 | b)
                if t not in nxt or key < nxt[t]:
                    nxt[t] = key
        states = nxt
    return BinaryVector(n, _reverse(states[0][1], n))


def _last_coordinate_rows(H: BinaryMatrix) -> dict[int, int]:
    """{i: m} for each coordinate i where some dual word ends, m a set of
    rows (bit j = row j) that sums to one.  Row j is reversed, so that its
    last coordinate is its lowest bit, and tagged with bit n + j: an echelon
    row with pivot p < n ends at n - 1 - p, and its tags are its rows."""
    n = H.cols
    tagged = [_reverse(r, n) | 1 << (n + j) for j, r in enumerate(H.row_bits)]
    return {n - 1 - p: r >> n for r, p in zip(*gf2_row_echelon(tagged)) if p < n}


def _reverse(bits: int, n: int) -> int:
    return int(format(bits, f"0{n}b")[::-1], 2)


def bsc_sample(c: BinaryVector, p: float, seed: int | random.Random) -> BinaryVector:
    """Flip each bit independently with probability p.

    seed is an int (a fresh stream, deterministic per seed) or a
    random.Random to draw from; bsc_errors draws a whole run's trials from
    one random.Random(seed), so runs with different seeds are independent.
    """
    if not 0 < p < 1:
        raise ValueError("crossover probability must be in (0, 1)")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    bits = c.bits
    for i in range(c.n):
        if rng.random() < p:
            bits ^= 1 << i
    return BinaryVector(c.n, bits)


def bsc_errors(n: int, p: float, trials: int, seed: int) -> Iterator[BinaryVector]:
    """`trials` BSC(p) corruptions of the zero word of length n, all drawn
    from one random.Random(seed): the error stream of every seeded run."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    zero = BinaryVector(n, 0)
    for _ in range(trials):
        yield bsc_sample(zero, p, rng)


@record
class OrbitRecord:
    """One error's orbit under the shift: its decode statuses by rotation,
    whether the outputs are rotations of each other (None with a tie), and
    whether the error itself failed to decode to the zero word."""

    error: tuple[int, ...]
    statuses: tuple[str, ...]
    outputs_shift_consistent: bool | None  # None when the orbit contains ties
    failed: bool  # the error itself (rotation 0) is not decoded to the zero word

    @property
    def status_uniform(self) -> bool:
        return len(set(self.statuses)) == 1


@record
class ShiftReport:
    """The orbit records of one shift experiment, with the counts derived
    from them: violations are the indices of the orbits whose statuses are
    not uniform or whose tie-free outputs are not rotations of each other,
    and tie_orbits counts the orbits that contain a tie (those whose
    outputs_shift_consistent is None)."""

    n0: int
    p: float
    orbits: tuple[OrbitRecord, ...]

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(
            idx for idx, r in enumerate(self.orbits)
            if not r.status_uniform or r.outputs_shift_consistent is False
        )

    @property
    def tie_orbits(self) -> int:
        return sum(r.outputs_shift_consistent is None for r in self.orbits)

    @property
    def ok(self) -> bool:
        return not self.violations


def shift_equivariance_experiment(
    H: BinaryMatrix,
    n0: int,
    errors: Sequence[BinaryVector],
    p: float,
) -> ShiftReport:
    """Decode every rotation of each error and compare along the orbit.

    For a representation closed under rotation by n0, the decoder's
    success/failure status must be constant along each orbit and, on
    tie-free orbits, the outputs must be rotations of the base output.
    Orbits containing a tie are only checked for status uniformity (any
    vertex of the optimal face is a legitimate output there) and counted.
    """
    if not is_quasi_cyclic(H, n0):
        raise ValueError(f"matrix is not quasi-cyclic with shifting constraint {n0}")
    n = H.cols
    shifts = [n0 * i for i in range(n // math.gcd(n, n0))]
    records = []
    for e in errors:
        if e.n != n:
            raise ValueError("error vector length mismatch")
        results = [lp_decode(H, llr_bsc(cyclic_shift(e, s), p)) for s in shifts]
        statuses = tuple(r.status for r in results)
        consistent = None if "tie" in statuses else all(
            r.optimum == cyclic_shift(results[0].optimum, s) for r, s in zip(results, shifts)
        )
        records.append(
            OrbitRecord(e.to_tuple(), statuses, consistent, not results[0].recovers_zero)
        )
    return ShiftReport(n0=n0, p=p, orbits=tuple(records))
