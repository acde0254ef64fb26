"""LP decoding over the relaxed polytope, brute-force ML decoding over the
codeword list, BSC simulation, and the shift-equivariance experiment for
quasi-cyclic representations.

LLRs are computed in double precision and rationalized (continued-fraction
approximation, denominator cap 10^6) before entering the exact simplex, so
the optimizer itself never sees a float.  A decode reports status
"codeword" / "fractional" when the optimum is the unique vertex of the
optimal face, and "tie" when that face contains more than one vertex; the
tie test is geometric, so it is invariant under coordinate rotations of a
quasi-cyclic instance.

The inequality system of the relaxed polytope is compiled once per
(H, row_weight_cap) into integer rows and held in a small bounded cache,
so repeated decodes on one matrix (a Monte Carlo run, a shift orbit) only
swap the objective row.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gf2 import BinaryMatrix, BinaryVector, cyclic_shift, is_quasi_cyclic, mat_vec_mod2
from .polytope import ROW_WEIGHT_CAP, build_relaxed_polytope
from .gf2 import enumerate_codewords
from .simplex import solve_min

LLR_DENOMINATOR_CAP = 10**6

LlrVector = Sequence[float]


def llr_bsc(w: BinaryVector, p: float) -> list[float]:
    """Per-position log-likelihood ratios for a BSC with crossover p.

    gamma_i = +log((1-p)/p) for a received 0 and the negation for a 1;
    p = 1/2 gives the all-zero (uninformative) vector.
    """
    if not 0 < p < 1:
        raise ValueError("crossover probability must be in (0, 1)")
    g = math.log((1 - p) / p)
    return [-g if b else g for b in w]


def rationalize_llr(
    gamma: LlrVector, max_denominator: int = LLR_DENOMINATOR_CAP
) -> tuple[Fraction, ...]:
    # BSC LLRs take two values, so approximate each distinct value once.
    exact = {x: Fraction(x).limit_denominator(max_denominator) for x in set(gamma)}
    return tuple(exact[x] for x in gamma)


@dataclass(frozen=True)
class DecodeResult:
    optimum: tuple[Fraction, ...]
    objective: Fraction  # against the rationalized LLRs
    integral: bool
    status: str  # "codeword" | "fractional" | "tie"

    def as_binary(self) -> BinaryVector:
        if not self.integral:
            raise ValueError("optimum is fractional")
        return BinaryVector.from_bits(int(x) for x in self.optimum)


@functools.lru_cache(maxsize=8)
def _compiled_system(
    H: BinaryMatrix, row_weight_cap: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Integer rows and bounds of the relaxed polytope of H.

    The row order is exactly that of build_relaxed_polytope: Bland's rule
    follows it, so it fixes the pivot path and the vertex returned in a tie.
    """
    P = build_relaxed_polytope(H, row_weight_cap)
    return tuple(a for a, _ in P.inequalities), tuple(b for _, b in P.inequalities)


def lp_decode(
    H: BinaryMatrix, gamma: LlrVector, row_weight_cap: int = ROW_WEIGHT_CAP
) -> DecodeResult:
    """min gamma . y over the relaxed polytope of H, solved exactly.

    The returned point is always a vertex (a basic solution of the
    inequality system).  status is "tie" whenever the optimal face has more
    than one vertex; otherwise "codeword" for an integral parity-valid
    optimum and "fractional" for the rest.
    """
    if len(gamma) != H.cols:
        raise ValueError(f"LLR length {len(gamma)} != cols {H.cols}")
    gr = rationalize_llr(gamma)
    A, b = _compiled_system(H, row_weight_cap)
    res = solve_min(A, b, gr)
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
    lexicographically smallest coordinate tuple."""
    if len(gamma) != H.cols:
        raise ValueError(f"LLR length {len(gamma)} != cols {H.cols}")
    gr = rationalize_llr(gamma)
    best = None
    best_key = None
    for c in enumerate_codewords(H):
        cost = sum(g for g, bit in zip(gr, c) if bit)
        key = (cost, c.to_tuple())
        if best_key is None or key < best_key:
            best, best_key = c, key
    return best


def bsc_sample(c: BinaryVector, p: float, seed: int | random.Random) -> BinaryVector:
    """Flip each bit independently with probability p.

    seed is an int (a fresh stream, deterministic per seed) or a
    random.Random to draw from; a Monte Carlo run draws all its trials from
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


@dataclass(frozen=True)
class OrbitRecord:
    error: tuple[int, ...]
    statuses: tuple[str, ...]
    status_uniform: bool
    outputs_shift_consistent: bool | None  # None when the orbit contains ties


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
    H: BinaryMatrix, n0: int, errors: Sequence[BinaryVector], p: float
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
        rec = OrbitRecord(e.to_tuple(), statuses, uniform, consistent)
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
