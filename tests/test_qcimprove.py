import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedec import gf2, lpdecode, qcimprove
from conedec import (
    BinaryMatrix,
    BinaryVector,
    add_qc_shifts,
    build_relaxed_polytope,
    cyclic_shift,
    enumerate_codewords,
    enumerate_vertices,
    evaluate_lp_performance,
    improve_representation,
    is_quasi_cyclic,
)
from conedec.constructions import hagiwara_css_label_matrix, hamming_matrix, steane_matrix
from conedec.errors import BoundExceeded
from conedec.lpdecode import bsc_errors, llr_bsc, lp_decode, ml_decode, rationalize_llr
from conedec.qcimprove import ImproveTarget, _ml_recovers_zero, shift_orbit


def _hamming7_closure() -> BinaryMatrix:
    H = hamming_matrix(3, cyclic=True)
    return add_qc_shifts(H, H.row(0), 1)


def brute_ml_recovers_zero(H: BinaryMatrix, gamma) -> bool:
    """Every nonzero codeword costs at least 1 under rationalize_llr's c,
    by a sweep over the codewords."""
    c, _ = rationalize_llr(gamma)
    return all(
        sum(a for a, b in zip(c, w) if b) >= 1 for w in enumerate_codewords(H) if w.bits
    )


def brute_ml_failures(H: BinaryMatrix, p: float, trials: int, seed: int) -> int:
    """The seeded run's trials whose zero word is not the unique ML word."""
    return sum(
        not brute_ml_recovers_zero(H, llr_bsc(e, p)) for e in bsc_errors(H.cols, p, trials, seed)
    )


class TestAddQcShifts:
    def test_hamming_completes_orbit(self, hamming7):
        grown = add_qc_shifts(hamming7, hamming7.row(0), 1)
        assert grown.rows == 7
        assert set(grown.row_bits[:3]) == set(hamming7.row_bits)
        assert is_quasi_cyclic(grown, 1)

    def test_orbit_already_present(self, hamming7_full):
        again = add_qc_shifts(hamming7_full, hamming7_full.row(0), 1)
        assert again == hamming7_full

    def test_full_length_shift_appends_word_only(self, hamming7):
        w = hamming7.row(0) ^ hamming7.row(1)
        grown = add_qc_shifts(hamming7, w, 7)
        assert grown.rows == 4
        assert grown.row(3) == w

    def test_rejects_word_outside_dual(self, hamming7):
        with pytest.raises(ValueError):
            add_qc_shifts(hamming7, BinaryVector.from_string("1000000"), 1)

    def test_code_is_preserved(self, hamming7, hamming7_full):
        assert enumerate_codewords(hamming7) == enumerate_codewords(hamming7_full)

    def test_shift_orbit_lengths(self, hamming7):
        assert len(shift_orbit(hamming7.row(0), 1)) == 7
        assert len(shift_orbit(hamming7.row(0), 7)) == 1
        assert len(shift_orbit(BinaryVector.from_string("101010"), 2)) == 1
        assert len(shift_orbit(BinaryVector.from_string("100100"), 2)) == 3


class TestEvaluateLpPerformance:
    def test_tiny_p_is_error_free(self, hamming7):
        est = evaluate_lp_performance(hamming7, 1e-6, 50, seed=1)
        assert est.fer == 0.0
        assert est.fractional_rate == 0.0

    def test_more_rows_never_hurt(self, hamming7, hamming7_full):
        est3 = evaluate_lp_performance(hamming7, 0.05, 400, seed=9)
        est7 = evaluate_lp_performance(hamming7_full, 0.05, 400, seed=9)
        assert est7.fer <= est3.fer

    def test_determinism(self, hamming7):
        a = evaluate_lp_performance(hamming7, 0.1, 100, seed=5)
        b = evaluate_lp_performance(hamming7, 0.1, 100, seed=5)
        assert a == b

    def test_seeds_draw_independent_patterns(self, monkeypatch):
        # Seeding trial t with seed ^ t made seeds 0 and 7 share 96 of
        # their first 100 patterns.  At p = 0.4 on 24 bits, two independent
        # runs of 100 trials share a pattern with probability below 1e-2.
        decode = qcimprove.lp_decode
        drawn = []

        def record(H, gamma):
            drawn.append(tuple(g < 0 for g in gamma))
            return decode(H, [1.0] * H.cols)

        H = BinaryMatrix(1, 24, [1])
        monkeypatch.setattr(qcimprove, "lp_decode", record)
        runs = []
        for seed in (0, 7):
            drawn.clear()
            evaluate_lp_performance(H, 0.4, 100, seed=seed)
            runs.append(set(drawn))
        assert len(runs[0]) == len(runs[1]) == 100
        assert not runs[0] & runs[1]

    def test_ml_cross_check(self, hamming7):
        # ML is asked only where LP fails, yet its count is that of every
        # trial: an LP success is an ML success.
        est = evaluate_lp_performance(hamming7, 0.1, 100, seed=3, ml=True)
        assert est.ml_failures == brute_ml_failures(hamming7, 0.1, 100, 3)
        assert 0 < est.ml_failures < est.failures
        assert est.pseudocodeword_failures == est.failures - est.ml_failures
        plain = evaluate_lp_performance(hamming7, 0.1, 10, seed=3)
        assert plain.ml_failures is None and plain.pseudocodeword_failures is None

    def test_ml_enumerates_no_codewords(self, hamming7, monkeypatch):
        # ML decoding walks the syndrome trellis of H; the codeword sweep is
        # left to the census and the tests.
        calls = []

        def counting(H, *args):
            calls.append(H)
            return enumerate_codewords(H, *args)

        for mod in (gf2, qcimprove, lpdecode):
            monkeypatch.setattr(mod, "enumerate_codewords", counting, raising=False)
        est = evaluate_lp_performance(hamming7, 0.1, 30, seed=3, ml=True)
        assert est.failures > 1  # several ML decisions
        assert est.ml_failures == brute_ml_failures(hamming7, 0.1, 30, 3)
        assert calls == []


class TestMlOnlyWhereLpFails:
    def test_ml_decides_each_failure_once(self, monkeypatch):
        # Past the one width check (a certified word, so no walk), ml_decode
        # runs once per LP failure and on no success.
        decisions, walks = [], []
        decide, walk = qcimprove._ml_recovers_zero, qcimprove.ml_decode
        monkeypatch.setattr(qcimprove, "_ml_recovers_zero",
                            lambda H, gamma: decisions.append(gamma) or decide(H, gamma))
        monkeypatch.setattr(qcimprove, "ml_decode",
                            lambda H, gamma: walks.append(gamma) or walk(H, gamma))
        H = steane_matrix(3)
        est = evaluate_lp_performance(H, 0.08, 150, seed=7, ml=True)
        failed = [llr_bsc(e, 0.08) for e in bsc_errors(H.cols, 0.08, 150, 7)]
        failed = [g for g in failed if not lp_decode(H, g).recovers_zero]
        assert decisions == failed and len(failed) == est.failures == 75
        assert len(walks) == est.failures + 1
        assert (est.ml_failures, est.pseudocodeword_failures) == (35, 40)

    @pytest.mark.parametrize("p, seed", [(0.05, 1), (0.15, 3), (0.25, 5)])
    def test_closure_has_no_pseudocodeword_failures(self, hamming7_full, p, seed):
        # All 16 relaxed-polytope vertices of the 7x7 closure are codewords,
        # so LP decoding is ML decoding there.
        est = evaluate_lp_performance(hamming7_full, p, 500, seed, ml=True)
        assert est.failures > 0
        assert est.pseudocodeword_failures == 0
        assert est.ml_failures == est.failures

    @pytest.mark.parametrize("matrix, p, trials", [
        pytest.param(lambda: hamming_matrix(3, cyclic=True), 0.1, 300, id="3x7"),
        pytest.param(_hamming7_closure, 0.15, 300, id="7x7"),
        pytest.param(lambda: steane_matrix(3), 0.08, 300, id="steane"),
        pytest.param(lambda: hamming_matrix(4), 0.08, 300, id="15_11"),
        pytest.param(hagiwara_css_label_matrix, 0.03, 20, id="hagiwara"),
    ])
    def test_lp_codeword_is_ml_word(self, matrix, p, trials):
        # The ML certificate of Feldman, Wainwright & Karger (2005): a
        # unique integral LP optimum is the unique ML word.  A success is
        # checked by the tie rule alone, whose answer makes zero the word
        # ml_decode returns; one trellis walk a trial keeps Hagiwara cheap.
        H = matrix()
        codewords = 0
        for e in bsc_errors(H.cols, p, trials, seed=1):
            gamma = llr_bsc(e, p)
            res = lp_decode(H, gamma)
            if res.recovers_zero:
                assert _ml_recovers_zero(H, gamma)
            elif res.status == "codeword":
                assert ml_decode(H, gamma) == res.as_binary()
            codewords += res.status == "codeword"
        assert codewords > trials // 2

    def test_trellis_cap_before_any_decode(self, monkeypatch):
        # At p = 0.001 no trial fails, so ML would never be asked; the width
        # check still comes before the first LP decode.
        decodes = []
        monkeypatch.setattr(qcimprove, "lp_decode", lambda H, gamma: decodes.append(gamma))
        # The code {(u, u)} with u of length 25 has 2^25 trellis states
        # after coordinate 24, over the 2^24 cap.
        H = BinaryMatrix(25, 50, [1 << j | 1 << (25 + j) for j in range(25)])
        with pytest.raises(BoundExceeded, match="2\\^25 states"):
            evaluate_lp_performance(H, 0.001, 5, seed=1, ml=True)
        assert decodes == []


# LLRs that force ties: small ints and their floats, both zeros, and
# Gaussian draws around the BPSK mean.
TIE_LLRS = (-2, -1, 0, 1, 2, -2.0, -1.0, 0.0, -0.0, 1.0, 2.0)


@st.composite
def tie_cases(draw):
    n = draw(st.integers(1, 10))
    row = st.one_of(
        st.just(0), st.integers(0, n - 1).map(lambda i: 1 << i), st.integers(0, (1 << n) - 1)
    )
    rows = draw(st.lists(row, min_size=1, max_size=6))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    gauss = st.integers(0, 2**32).map(lambda s: random.Random(s).gauss(1, 1.2))
    llr = st.one_of(st.sampled_from(TIE_LLRS), gauss)
    return BinaryMatrix(len(rows), n, rows), draw(st.lists(llr, min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(tie_cases())
@example((BinaryMatrix(1, 2, [0b11]), [1, -1]))  # 11 ties with zero
@example((BinaryMatrix(1, 3, [0]), [0.0, -0.0, 0]))  # every word costs 0
@example((BinaryMatrix(1, 1, [1]), [0]))  # zero is the only codeword
@example((BinaryMatrix(2, 3, [0b011, 0b011]), [-1, 2, 1]))  # 011 costs 1
def test_ml_tie_rule_matches_codeword_sweep(case):
    H, gamma = case
    assert _ml_recovers_zero(H, gamma) == brute_ml_recovers_zero(H, gamma)


class TestImproveRepresentation:
    def test_hamming_reaches_zero_noncodeword(self, hamming7):
        report = improve_representation(
            hamming7, 1, ImproveTarget(max_noncw_vertices=0), budget=5
        )
        assert report.met_target
        assert len(report.iterations) == 1
        it = report.iterations[0]
        assert it.orbit_size == 4  # the four missing rotations
        assert it.vertex_count == 16
        assert it.non_codeword_vertex_count == 0
        assert report.final_matrix.rows == 7

    def test_added_word_is_lightest_missing(self, hamming7):
        report = improve_representation(
            hamming7, 1, ImproveTarget(max_noncw_vertices=0), budget=5
        )
        w = BinaryVector.from_bits(report.iterations[0].added_word)
        assert w.weight() == 4
        assert w.bits not in hamming7.row_bits
        shifts = {cyclic_shift(hamming7.row(0), s) for s in range(7)}
        assert w in shifts

    def test_target_met_at_input(self, hamming7_full):
        report = improve_representation(
            hamming7_full, 1, ImproveTarget(max_noncw_vertices=0), budget=5
        )
        assert report.met_target
        assert report.iterations == ()
        assert report.final_matrix == hamming7_full

    def test_budget_zero(self, hamming7):
        report = improve_representation(
            hamming7, 1, ImproveTarget(max_noncw_vertices=0), budget=0
        )
        assert not report.met_target
        assert report.iterations == ()

    def test_fer_target(self, hamming7):
        report = improve_representation(
            hamming7,
            1,
            ImproveTarget(max_fer=0.02, p=0.01),
            budget=3,
            seed=3,
            trials=200,
        )
        assert report.met_target or len(report.iterations) == 3
        for it in report.iterations:
            assert it.fer_estimate is not None

    def test_determinism(self, hamming7):
        a = improve_representation(
            hamming7, 1, ImproveTarget(max_noncw_vertices=0), budget=5, seed=2
        )
        b = improve_representation(
            hamming7, 1, ImproveTarget(max_noncw_vertices=0), budget=5, seed=2
        )
        assert a == b

    def test_dual_words_exhausted(self, hamming7):
        # After one orbit all 7 weight-4 dual words are rows; the loop stops
        # with the target unmet instead of raising.
        report = improve_representation(
            hamming7, 1, ImproveTarget(max_fer=0.01, p=0.05), budget=3, trials=100
        )
        assert not report.met_target
        assert len(report.iterations) == 1
        assert report.final_matrix.rows == 7

    @pytest.mark.parametrize("n0", [0, -2])
    def test_n0_below_one(self, hamming7, n0):
        # The check comes first: a target met at the start must not let an
        # invalid n0 through.
        for noncw in (1000, 0):
            with pytest.raises(ValueError, match="n0 must be >= 1"):
                improve_representation(hamming7, n0, ImproveTarget(noncw), budget=3)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            ImproveTarget()
        with pytest.raises(ValueError):
            ImproveTarget(max_noncw_vertices=0, max_fer=0.1, p=0.1)
        with pytest.raises(ValueError):
            ImproveTarget(max_fer=0.1)

    @pytest.mark.parametrize("kwargs", [
        {"max_noncw_vertices": -1},
        {"max_fer": -0.1, "p": 0.05},
        {"max_fer": 1.5, "p": 0.05},
        {"max_fer": 0.1, "p": 0.0},
        {"max_fer": 0.1, "p": 1.0},
        {"max_fer": 0.1, "p": -0.5},
    ], ids=["noncw-negative", "fer-negative", "fer-above-one", "p-zero", "p-one", "p-negative"])
    def test_target_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ImproveTarget(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"max_noncw_vertices": 0}, {"max_fer": 0.0, "p": 0.5}, {"max_fer": 1.0, "p": 0.01},
    ], ids=["noncw-zero", "fer-zero", "fer-one"])
    def test_target_range_ends(self, kwargs):
        ImproveTarget(**kwargs)


class TestShiftMustMapCodeToItself:
    # improve_representation checks every row's n0-shift against the row
    # space of H before its first measure.

    def test_refused_before_the_census(self, monkeypatch):
        # Rotating Steane 6x14 by 1 takes row 2 out of the dual.  The census
        # (some 15 s) is never started.
        census = []
        monkeypatch.setattr(qcimprove, "lp_pseudocodewords", census.append)
        with pytest.raises(ValueError, match=(
            "^the n0 = 1 shift of row 2, 00010111000000, is not in the dual code; "
            "the shift does not map the code to itself$"
        )):
            improve_representation(steane_matrix(3), 1, ImproveTarget(max_noncw_vertices=0), budget=2)
        assert census == []

    def test_target_met_at_the_start_is_refused(self):
        # The systematic Hamming 3x7 meets 1000 non-codeword vertices at
        # once, and the loop used to return met_target with no iteration.
        with pytest.raises(ValueError, match="shift of row 0, 1101010, is not in the dual code"):
            improve_representation(hamming_matrix(3), 1, ImproveTarget(max_noncw_vertices=1000), budget=2)

    def test_orbits_that_stay_in_the_dual_are_refused(self):
        # The lightest missing dual word, 110110, is its own 3-shift, so the
        # loop used to adjoin it and meet the target in one iteration, though
        # row 0's 3-shift, 111101, is outside the dual.
        H = BinaryMatrix.from_rows([[1, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 1]])
        word = BinaryVector.from_bits([1, 1, 0, 1, 1, 0])
        assert shift_orbit(word, 3) == [word]
        assert add_qc_shifts(H, word, 3).rows == 3
        with pytest.raises(ValueError, match="shift of row 0, 111101, is not in the dual code"):
            improve_representation(H, 3, ImproveTarget(max_noncw_vertices=0), budget=3)

    def test_n0_checked_first(self):
        with pytest.raises(ValueError, match="n0 must be >= 1"):
            improve_representation(steane_matrix(3), 0, ImproveTarget(max_noncw_vertices=0), budget=2)


class TestRepresentationMonotonicity:
    def test_vertices_of_grown_matrix_satisfy_original_rows(self, hamming7, hamming7_full):
        P3 = build_relaxed_polytope(hamming7)
        vs7 = enumerate_vertices(build_relaxed_polytope(hamming7_full))
        for v in vs7.vertices:
            assert P3.contains(v)
