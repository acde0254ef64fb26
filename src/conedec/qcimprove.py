"""Redundant-row improvement for quasi-cyclic representations.

Adding rows from the dual code leaves the code unchanged but shrinks the
relaxed polytope; adding whole shift orbits keeps the representation
quasi-cyclic.  The loop here repeatedly adjoins the orbit of the lightest
missing dual word and re-measures decoder quality until a target is met or
the budget runs out.  The kind of target decides the measure: a census
target takes the exact vertex census, and an FER target a Monte Carlo
frame error rate.  A census target on more than VERTEX_DIM_CAP columns
raises BoundExceeded (exit 3 on the command line) rather than falling back
to Monte Carlo.
"""

from __future__ import annotations

from .gf2 import (
    BinaryMatrix,
    BinaryVector,
    cyclic_shift,
    enumerate_dual_words,
    row_space_contains,
)
from .lpdecode import bsc_errors, llr_bsc, lp_decode, ml_decode
from .polytope import lp_pseudocodewords
from .record import record


def shift_orbit(c: BinaryVector, n0: int) -> list[BinaryVector]:
    """The distinct rotations of c by multiples of n0, in shift order."""
    orbit = [c]
    cur = cyclic_shift(c, n0)
    while cur != c:
        orbit.append(cur)
        cur = cyclic_shift(cur, n0)
    return orbit


def add_qc_shifts(H: BinaryMatrix, c: BinaryVector, n0: int) -> BinaryMatrix:
    """Append the full shift orbit of c to H, skipping rows already present.

    Every orbit member must lie in the row space of H; that is exactly the
    dual code of C(H), so appending cannot change the code.  A member
    outside the dual is rejected.
    """
    if c.n != H.cols:
        raise ValueError("word length mismatch")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    present = set(H.row_bits)
    new_rows = list(H.row_bits)
    for w in shift_orbit(c, n0):
        if not row_space_contains(H, w):
            raise ValueError(
                f"orbit member {w.to01()} is not in the dual code; "
                "appending it would change the code"
            )
        if w.bits not in present:
            present.add(w.bits)
            new_rows.append(w.bits)
    return BinaryMatrix(len(new_rows), H.cols, new_rows)


@record
class PerformanceEstimate:
    """Monte Carlo decoder quality over all-zero transmission.

    A trial fails unless DecodeResult.recovers_zero holds (a unique decode
    to the zero word); ties count as failures.  ml_mismatches counts
    "codeword" outputs that differ from the ML word, and is None when the
    run was not cross-checked.
    """

    p: float
    trials: int
    seed: int
    failures: int
    fractional: int
    ties: int
    ml_mismatches: int | None = None

    @property
    def fer(self) -> float:
        return self.failures / self.trials

    @property
    def fractional_rate(self) -> float:
        return self.fractional / self.trials


def evaluate_lp_performance(
    H: BinaryMatrix,
    p: float,
    trials: int,
    seed: int,
    ml: bool = False,
) -> PerformanceEstimate:
    """LP-decode `trials` BSC(p) corruptions of the zero word.

    The errors are bsc_errors(H.cols, p, trials, seed), the stream every
    seeded run draws from.  With ml, every "codeword" output is
    cross-checked against ml_decode.
    """
    failures = fractional = ties = mismatches = 0
    for e in bsc_errors(H.cols, p, trials, seed):
        gamma = llr_bsc(e, p)
        res = lp_decode(H, gamma)
        if not res.recovers_zero:
            failures += 1
        if res.status == "fractional":
            fractional += 1
        elif res.status == "tie":
            ties += 1
        if ml and res.status == "codeword" and ml_decode(H, gamma) != res.as_binary():
            mismatches += 1
    return PerformanceEstimate(
        p=p, trials=trials, seed=seed, failures=failures,
        fractional=fractional, ties=ties,
        ml_mismatches=mismatches if ml else None,
    )


@record
class ImproveTarget:
    """Either an exact census target (at most this many non-codeword
    vertices) or an FER threshold at a given crossover probability."""

    max_noncw_vertices: int | None = None
    max_fer: float | None = None
    p: float | None = None

    def __post_init__(self):
        if (self.max_noncw_vertices is None) == (self.max_fer is None):
            raise ValueError("set exactly one of max_noncw_vertices / max_fer")
        if self.max_fer is not None and self.p is None:
            raise ValueError("an FER target needs a crossover probability")
        if self.max_noncw_vertices is not None and self.max_noncw_vertices < 0:
            raise ValueError("max_noncw_vertices must be >= 0")
        if self.max_fer is not None and not 0 <= self.max_fer <= 1:
            raise ValueError("max_fer must lie in [0, 1]")
        if self.p is not None and not 0 < self.p < 1:
            raise ValueError("the crossover probability must lie in (0, 1)")


@record
class Iteration:
    """One step of the improve loop: the dual word whose orbit was added, the
    number of rows it added, and the new measure (the vertex counts for a
    census target, the FER for an FER target, None otherwise)."""

    added_word: tuple[int, ...]
    orbit_size: int
    vertex_count: int | None
    non_codeword_vertex_count: int | None
    fer_estimate: float | None


@record
class ImprovementReport:
    """The improve loop's steps, the matrix it ends with, whether that matrix
    meets the target, and the Monte Carlo seed of the FER measures."""

    iterations: tuple[Iteration, ...]
    final_matrix: BinaryMatrix
    met_target: bool
    seed: int


def improve_representation(
    H: BinaryMatrix,
    n0: int,
    target: ImproveTarget,
    budget: int,
    seed: int = 0,
    trials: int = 1000,
) -> ImprovementReport:
    """Adjoin dual-word shift orbits until the target is met.

    Each step picks the minimum-weight dual word that is not already a row
    (ties broken by lexicographically smallest coordinate tuple), adds its
    full n0-shift orbit, and re-evaluates.  The loop also stops, with
    met_target False, once every dual word is a row.  Deterministic given
    (H, n0, target, budget), and for an FER target also given seed and
    trials, which fix the Monte Carlo errors.

    The n0 shift must map the code to itself: before the first measure,
    every row's n0-shift must lie in the row space of H (the dual code),
    or ValueError is raised.  The shifted dual is then the dual, so every
    orbit the loop adds stays in it.  The rule holds whether or not the
    target is met at the start, and it refuses a matrix whose chosen
    orbits would happen to stay in the dual.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    for j in range(H.rows):
        w = cyclic_shift(H.row(j), n0)
        if not row_space_contains(H, w):
            raise ValueError(
                f"the n0 = {n0} shift of row {j}, {w.to01()}, is not in the dual code; "
                "the shift does not map the code to itself"
            )

    def measure(mat: BinaryMatrix):
        if target.max_noncw_vertices is not None:
            census = lp_pseudocodewords(mat)
            noncw = len(census.non_codeword)
            met = noncw <= target.max_noncw_vertices
            return met, len(census.vertex_set), noncw, None
        est = evaluate_lp_performance(mat, target.p, trials, seed)
        return est.fer <= target.max_fer, None, None, est.fer

    current = H
    met, *_ = measure(current)
    iterations: list[Iteration] = []
    while not met and len(iterations) < budget:
        # A word whose whole orbit is already present is itself a row, so
        # the candidate filter guarantees the orbit adds at least one row.
        word = _next_dual_word(current)
        if word is None:
            break  # every dual word is already a row
        grown = add_qc_shifts(current, word, n0)
        orbit_size = grown.rows - current.rows
        current = grown
        met, vcount, noncw, fer = measure(current)
        iterations.append(
            Iteration(
                added_word=word.to_tuple(),
                orbit_size=orbit_size,
                vertex_count=vcount,
                non_codeword_vertex_count=noncw,
                fer_estimate=fer,
            )
        )
    return ImprovementReport(
        iterations=tuple(iterations),
        final_matrix=current,
        met_target=met,
        seed=seed,
    )


def _next_dual_word(H: BinaryMatrix) -> BinaryVector | None:
    # enumerate_dual_words sorts by (weight, coords)
    return next((w for w, is_row in enumerate_dual_words(H, H.cols) if not is_row), None)
