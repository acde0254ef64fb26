import pytest

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
from conedec.qcimprove import ImproveTarget, shift_orbit


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
        est = evaluate_lp_performance(hamming7, 0.1, 100, seed=3, ml=True)
        assert est.ml_mismatches == 0
        assert evaluate_lp_performance(hamming7, 0.1, 10, seed=3).ml_mismatches is None

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
        assert est.trials - est.failures > 1  # several "codeword" trials
        assert est.ml_mismatches == 0
        assert calls == []


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


class TestRepresentationMonotonicity:
    def test_vertices_of_grown_matrix_satisfy_original_rows(self, hamming7, hamming7_full):
        P3 = build_relaxed_polytope(hamming7)
        vs7 = enumerate_vertices(build_relaxed_polytope(hamming7_full))
        for v in vs7.vertices:
            assert P3.contains(v)
