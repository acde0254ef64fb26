"""LP decoding over the relaxed polytope, ML decoding on the syndrome
trellis of H, BSC simulation, and the shift-equivariance experiment for
quasi-cyclic representations.

Every seeded Monte Carlo run, with or without shift orbits, draws its
errors from one stream, bsc_errors(n, p, trials, seed).

LLRs are computed in double precision and rationalized (continued-fraction
approximation, denominator cap 10^6) before entering the exact simplex, so
the optimizer itself never sees a float.  Each distinct value is
approximated once per process (a bounded cache), since BSC LLRs repeat.  A
decode reports status "codeword" / "fractional" when the optimum is the
unique vertex of the optimal face, and "tie" when that face contains more
than one vertex; the tie test is geometric, so it is invariant under
coordinate rotations of a quasi-cyclic instance.

The relaxed polytope's rows are compiled once per H, straight from H's
sparse odd-set rows (polytope.relaxed_rows) with no dense system, into an
ExactSimplex at its slack basis.  Its sparse integer rows
and column index are held in a cache bounded by the total number of rows
it stores; repeated decodes on one matrix (a Monte Carlo run, a shift
orbit) share them and only bring their own objective row.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Sequence

from . import dd
from .errors import BoundExceeded
from .gf2 import (
    ENUMERATION_CAP,
    BinaryMatrix,
    BinaryVector,
    cyclic_shift,
    is_quasi_cyclic,
    mat_vec_mod2,
)
from .polytope import relaxed_rows
from .simplex import ExactSimplex

LLR_DENOMINATOR_CAP = 10**6

# Constraint rows kept across the cached compiled systems; the newest one is
# kept whatever its size.  The 163,902 rows of [31,26] (weight 16) hold
# about 87 MB (tracemalloc, CPython 3.11), so 2^14 such rows hold some
# 9 MB; 3x7, 7x7, Steane, [15,11] and Hagiwara together take 2238 rows.
COMPILED_ROWS_CAP = 1 << 14

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


def rationalize_llr(gamma: LlrVector) -> tuple[Fraction, ...]:
    return tuple(map(_rational, gamma))


@functools.lru_cache(maxsize=4096)
def _rational(x) -> Fraction:
    # Equal numbers of any type (1, 1.0, Fraction(1)) share a key and have
    # the same approximation; NaN and inf raise and are not cached.
    return Fraction(x).limit_denominator(LLR_DENOMINATOR_CAP)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _certified_codeword(H: BinaryMatrix, gr: Sequence[Fraction]) -> int | None:
    """The hard decision y of gr (bit i = 1 iff gr_i < 0) when no gr_i is 0
    and y is a codeword; y is then the unique minimizer of gr . x over
    [0, 1]^n and so over the relaxed polytope and the code.  Else None."""
    y = 0
    for i, g in enumerate(gr):
        a = g.numerator  # the sign without a Fraction comparison
        if a < 0:
            y |= 1 << i
        elif not a:
            return None
    if y and any((r & y).bit_count() & 1 for r in H.row_bits):
        return None
    return y


@dataclass(frozen=True)
class DecodeResult:
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


_compiled: OrderedDict[BinaryMatrix, ExactSimplex] = OrderedDict()


def _compiled_system(H: BinaryMatrix) -> ExactSimplex:
    """The relaxed polytope of H as a simplex at its slack basis with a zero
    objective; each decode starts from it with with_objective, which shares
    its sparse integer rows and column index.

    The rows are relaxed_rows(H), in its order: Bland's rule follows it, so
    it fixes the pivot path and the vertex returned in a tie.
    Systems are cached least recently used first out, until the rows of the
    rest fit in COMPILED_ROWS_CAP.
    """
    if H in _compiled:
        _compiled.move_to_end(H)
        return _compiled[H]
    A, b = zip(*relaxed_rows(H))
    sx = _compiled[H] = ExactSimplex(H.cols, A, b, [0] * H.cols)
    rows = sum(s.m for s in _compiled.values())
    while rows > COMPILED_ROWS_CAP and len(_compiled) > 1:
        rows -= _compiled.popitem(last=False)[1].m
    return sx


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
    gr = rationalize_llr(gamma)
    system = _compiled_system(H)  # raises over the cap, certified or not
    hard = _certified_codeword(H, gr)
    if hard is not None:
        logger.debug("lp_decode: hard decision of weight %d is a codeword, no LP", hard.bit_count())
        bits = range(H.cols)
        return DecodeResult(
            optimum=tuple([_ONE if hard >> i & 1 else _ZERO for i in bits]),
            objective=sum([gr[i] for i in bits if hard >> i & 1], _ZERO),
            integral=True,
            status="codeword",
        )
    res = system.with_objective(gr).solve()
    y = res.x
    integral = all(v.denominator == 1 for v in y)
    if not res.unique:
        status = "tie"
    elif integral:
        if any(mat_vec_mod2(H, [int(v) for v in y])):
            raise AssertionError("integral optimum violates parity")
        status = "codeword"
    else:
        status = "fractional"
    return DecodeResult(optimum=y, objective=res.objective, integral=integral, status=status)


def ml_decode(H: BinaryMatrix, gamma: LlrVector) -> BinaryVector:
    """argmin of gamma . c over all codewords; ties break to the
    lexicographically smallest coordinate tuple.

    Min-sum on the syndrome trellis of H (Wolf, IEEE T-IT 1978), whose state
    after coordinate i is the syndrome of c_0..c_i.  Only the states that
    are reachable from 0 and can still reach 0 are kept: that is the
    minimal BCJR trellis (McEliece, IEEE T-IT 1996), with at most
    min(2^k, 2^(n-k)) states per level.  Its widths are known before the
    walk, and one above 2^ENUMERATION_CAP raises BoundExceeded.  Each state
    keeps its least (cost, prefix) pair, the prefix an int with c_0 as its
    top bit, so that int order is tuple order on prefixes of one length.
    A certified hard decision (see the module docstring) is returned
    without the walk.
    """
    n = H.cols
    if len(gamma) != n:
        raise ValueError(f"LLR length {len(gamma)} != cols {n}")
    gr = rationalize_llr(gamma)
    last = _last_coordinate_rows(H.row_bits)
    first = _last_coordinate_rows([_reverse(b, n) for b in H.row_bits])
    # The state count doubles where the later columns span column i (both
    # bits stay live) and halves where the earlier ones do (states merge);
    # first is last with the coordinates reversed.
    width = max(accumulate((i not in last) - (n - 1 - i not in first) for i in range(n)))
    if width > ENUMERATION_CAP:
        raise BoundExceeded(
            f"ML trellis needs 2^{width} states, above the 2^{ENUMERATION_CAP} cap"
        )
    # After the width check, so the cap holds for certified words too.
    hard = _certified_codeword(H, gr)
    if hard is not None:
        logger.debug("ml_decode: hard decision of weight %d is a codeword, no trellis", hard.bit_count())
        return BinaryVector(n, hard)
    # Scaling every LLR by one positive factor keeps the order of costs.
    w = dd.integerize(gr)
    states = {0: (0, 0)}  # syndrome -> (cost, prefix)
    for h, wi, m in zip(H.transpose().row_bits, w, map(last.get, range(n))):
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


def _last_coordinate_rows(row_bits: Sequence[int]) -> dict[int, int]:
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


@dataclass(frozen=True)
class OrbitRecord:
    error: tuple[int, ...]
    statuses: tuple[str, ...]
    status_uniform: bool
    outputs_shift_consistent: bool | None  # None when the orbit contains ties
    failed: bool  # the error itself (rotation 0) is not decoded to the zero word


@dataclass(frozen=True)
class ShiftReport:
    n0: int
    p: float
    orbits: tuple[OrbitRecord, ...]
    violations: tuple[int, ...]  # orbit indices with a failed check
    tie_orbits: int

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
    orbit_len = n // math.gcd(n, n0)
    records = []
    violations = []
    tie_orbits = 0
    for idx, e in enumerate(errors):
        if e.n != n:
            raise ValueError("error vector length mismatch")
        results = []
        for i in range(orbit_len):
            shifted = cyclic_shift(e, n0 * i)
            results.append(lp_decode(H, llr_bsc(shifted, p)))
        statuses = tuple(r.status for r in results)
        uniform = len(set(statuses)) == 1
        if "tie" in statuses:
            tie_orbits += 1
            consistent = None
        else:
            base = results[0].optimum
            consistent = all(
                results[i].optimum == cyclic_shift(base, n0 * i)
                for i in range(orbit_len)
            )
        rec = OrbitRecord(
            e.to_tuple(), statuses, uniform, consistent, not results[0].recovers_zero
        )
        records.append(rec)
        if not uniform or consistent is False:
            violations.append(idx)
    return ShiftReport(
        n0=n0,
        p=p,
        orbits=tuple(records),
        violations=tuple(violations),
        tie_orbits=tie_orbits,
    )
