import math
import random
from fractions import Fraction

import pytest

from conedec import (
    BinaryMatrix,
    BinaryVector,
    bsc_sample,
    build_relaxed_polytope,
    cyclic_shift,
    enumerate_codewords,
    enumerate_vertices,
    llr_bsc,
    lp_decode,
    ml_decode,
    shift_equivariance_experiment,
)
from conedec.constructions import hamming_matrix, steane_matrix
from conedec.errors import BoundExceeded
from conedec.lpdecode import rationalize_llr
from conedec.simplex import solve_min


def vertex_costs(H, gamma):
    gr = rationalize_llr(gamma)
    vs = enumerate_vertices(build_relaxed_polytope(H))
    return gr, [(sum(g * x for g, x in zip(gr, v)), v) for v in vs.vertices]


class TestLlrBsc:
    def test_value_at_p01(self):
        w = BinaryVector.from_string("00")
        g = llr_bsc(w, 0.1)
        assert g[0] == pytest.approx(math.log(9), abs=1e-12)
        assert g[0] == pytest.approx(2.19722, abs=1e-5)

    def test_uninformative_channel(self):
        w = BinaryVector.from_string("0101")
        assert llr_bsc(w, 0.5) == [0.0, 0.0, 0.0, 0.0]

    def test_complement_antisymmetry(self):
        w = BinaryVector.from_string("0110")
        wc = BinaryVector(4, w.bits ^ 0b1111)
        assert llr_bsc(w, 0.2) == [-g for g in llr_bsc(wc, 0.2)]

    def test_invalid_p(self):
        w = BinaryVector.from_string("0")
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                llr_bsc(w, p)


class TestLpDecode:
    def test_no_error_decodes_to_zero(self, hamming7):
        res = lp_decode(hamming7, llr_bsc(BinaryVector(7, 0), 0.1))
        assert res.status == "codeword"
        assert all(x == 0 for x in res.optimum)
        assert res.objective == 0

    def test_output_is_minimum_cost_vertex(self, hamming7):
        gamma = llr_bsc(BinaryVector.from_string("1110000"), 0.1)
        res = lp_decode(hamming7, gamma)
        gr, costs = vertex_costs(hamming7, gamma)
        zstar = min(c for c, _ in costs)
        optimal = {v for c, v in costs if c == zstar}
        assert res.objective == zstar
        assert res.optimum in optimal
        assert (res.status == "tie") == (len(optimal) > 1)

    def test_single_check_integral(self):
        H = BinaryMatrix.from_rows([[1, 1, 1]])
        rng = random.Random(4)
        for _ in range(25):
            gamma = [rng.uniform(-2, 2) for _ in range(3)]
            res = lp_decode(H, gamma)
            if res.status != "tie":
                assert res.integral

    def test_output_is_vertex_and_beats_codewords(self, hamming7):
        rng = random.Random(5)
        vs = set(enumerate_vertices(build_relaxed_polytope(hamming7)).vertices)
        for _ in range(10):
            e = bsc_sample(BinaryVector(7, 0), 0.15, rng.randrange(1 << 30))
            gamma = llr_bsc(e, 0.15)
            res = lp_decode(hamming7, gamma)
            assert res.optimum in vs
            gr = rationalize_llr(gamma)
            for c in enumerate_codewords(hamming7):
                assert res.objective <= sum(g * b for g, b in zip(gr, c))

    def test_uninformative_channel_ties_at_zero(self, hamming7):
        res = lp_decode(hamming7, llr_bsc(BinaryVector(7, 0), 0.5))
        assert res.status == "tie"
        assert all(x == 0 for x in res.optimum)

    def test_tie_is_geometric(self, hamming7):
        # Weight-1 error at p=0.1: the zero word and a fractional vertex
        # both cost zero, so the status must be a tie.
        gamma = llr_bsc(BinaryVector.from_string("1000000"), 0.1)
        res = lp_decode(hamming7, gamma)
        _, costs = vertex_costs(hamming7, gamma)
        zstar = min(c for c, _ in costs)
        assert len([v for c, v in costs if c == zstar]) > 1
        assert res.status == "tie"


class TestMlDecode:
    def test_all_positive_gives_zero(self, hamming7):
        assert ml_decode(hamming7, [1.0] * 7) == BinaryVector(7, 0)

    def test_corrects_single_error(self, hamming7):
        for i in range(7):
            e = BinaryVector(7, 1 << i)
            assert ml_decode(hamming7, llr_bsc(e, 0.1)) == BinaryVector(7, 0)

    def test_exhaustive_oracle(self, hamming7):
        rng = random.Random(9)
        words = enumerate_codewords(hamming7)
        for _ in range(30):
            gamma = [rng.uniform(-2, 2) for _ in range(7)]
            gr = rationalize_llr(gamma)
            best = min(
                (sum(g * b for g, b in zip(gr, c)), c.to_tuple()) for c in words
            )
            assert ml_decode(hamming7, gamma).to_tuple() == best[1]

    def test_integral_lp_agrees(self, hamming7):
        rng = random.Random(10)
        for t in range(50):
            e = bsc_sample(BinaryVector(7, 0), 0.1, 1000 + t)
            gamma = llr_bsc(e, 0.1)
            res = lp_decode(hamming7, gamma)
            if res.status == "codeword":
                assert res.as_binary() == ml_decode(hamming7, gamma)

    def test_integral_lp_agrees_single_check(self):
        H = BinaryMatrix.from_rows([[1, 1, 1, 1]])
        for t in range(50):
            e = bsc_sample(BinaryVector(4, 0), 0.15, 3000 + t)
            gamma = llr_bsc(e, 0.15)
            res = lp_decode(H, gamma)
            if res.status == "codeword":
                assert res.as_binary() == ml_decode(H, gamma)


def reference_decode(H, gamma, row_weight_cap=20):
    """Decode without the compiled system: build the polytope afresh and
    solve it from Fraction rows, as lp_decode did before compilation."""
    P = build_relaxed_polytope(H, row_weight_cap)
    res = solve_min(
        [[Fraction(x) for x in a] for a, _ in P.inequalities],
        [Fraction(b) for _, b in P.inequalities],
        rationalize_llr(gamma),
    )
    integral = all(v.denominator == 1 for v in res.x)
    status = "tie" if not res.unique else "codeword" if integral else "fractional"
    return status, res.x, res.objective


def decode_triple(H, gamma, row_weight_cap=20):
    res = lp_decode(H, gamma, row_weight_cap)
    return res.status, res.optimum, res.objective


class TestCompiledSystem:
    def test_matches_reference_on_seeded_corpus(self, hamming7, hamming7_full):
        rng = random.Random(20261017)
        codes = [(hamming7, 40), (hamming7_full, 40), (steane_matrix(3), 40),
                 (hamming_matrix(4), 4)]
        statuses = set()
        for H, count in codes:
            for t in range(count):
                if t % 2:  # Gaussian LLRs: fractional optima are unique there
                    gamma = [rng.gauss(1.0, 1.2) for _ in range(H.cols)]
                else:  # BSC LLRs have equal magnitudes and so often tie
                    p = rng.choice((0.05, 0.1, 0.2))
                    e = BinaryVector(H.cols, 0)
                    while e.weight() == 0:
                        e = bsc_sample(e, p, rng)
                    gamma = llr_bsc(e, p)
                got = decode_triple(H, gamma)
                assert got == reference_decode(H, gamma)
                statuses.add(got[0])
        assert statuses == {"codeword", "fractional", "tie"}

    def test_alternating_matrices_of_one_shape(self):
        H1, H2 = hamming_matrix(3), hamming_matrix(3, cyclic=True)
        assert H1 != H2 and (H1.rows, H1.cols) == (H2.rows, H2.cols)
        rng = random.Random(3)
        differ = 0
        for _ in range(20):
            gamma = llr_bsc(BinaryVector(7, rng.getrandbits(7)), 0.1)
            r1, r2 = decode_triple(H1, gamma), decode_triple(H2, gamma)
            assert r1 == reference_decode(H1, gamma)
            assert r2 == reference_decode(H2, gamma)
            differ += r1 != r2
        assert differ > 0

    def test_smaller_cap_still_raises(self, hamming7):
        gamma = llr_bsc(BinaryVector(7, 0), 0.1)
        assert lp_decode(hamming7, gamma).status == "codeword"
        with pytest.raises(BoundExceeded):
            lp_decode(hamming7, gamma, row_weight_cap=3)
        assert lp_decode(hamming7, gamma, row_weight_cap=4).status == "codeword"


class TestBscSample:
    def test_determinism(self):
        c = BinaryVector.from_string("10110")
        assert bsc_sample(c, 0.3, 77) == bsc_sample(c, 0.3, 77)

    def test_tiny_p_identity(self):
        c = BinaryVector.from_string("1011100")
        for t in range(1000):
            assert bsc_sample(c, 1e-9, t) == c

    def test_flip_rate_concentration(self):
        n, p = 100, 0.2
        c = BinaryVector(n, 0)
        flips = sum(
            bsc_sample(c, p, 5000 + t).weight() for t in range(1000)
        )
        total = 1000 * n
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(flips - total * p) < 3 * sigma


class TestShiftEquivariance:
    def test_unit_error_orbit(self, hamming7_full):
        rep = shift_equivariance_experiment(
            hamming7_full, 1, [BinaryVector(7, 1)], 0.05
        )
        assert rep.ok
        rec = rep.orbits[0]
        assert rec.status_uniform
        assert rec.outputs_shift_consistent in (True, None)

    def test_unit_error_outputs_match_exhaustive_costing(self, hamming7_full):
        # Independent check of the orbit outputs against the vertex census.
        e = BinaryVector(7, 1)
        for i in range(7):
            shifted = cyclic_shift(e, i)
            gamma = llr_bsc(shifted, 0.05)
            res = lp_decode(hamming7_full, gamma)
            gr, costs = vertex_costs(hamming7_full, gamma)
            zstar = min(c for c, _ in costs)
            assert res.objective == zstar

    def test_zero_error(self, hamming7_full):
        rep = shift_equivariance_experiment(
            hamming7_full, 1, [BinaryVector(7, 0)], 0.05
        )
        assert rep.ok and rep.tie_orbits == 0
        for r in rep.orbits:
            assert r.statuses == ("codeword",) * 7

    def test_requires_quasi_cyclic(self, hamming7):
        with pytest.raises(ValueError):
            shift_equivariance_experiment(hamming7, 1, [BinaryVector(7, 0)], 0.05)

    def test_statuses_orbit_constant_even_with_ties(self):
        # Repetition check on two bits: a single flipped bit makes the whole
        # diagonal segment optimal, a genuine tie; its rotation must tie too,
        # so the orbit stays uniform and is counted, not flagged.
        H = BinaryMatrix.from_rows([[1, 1]])
        rep = shift_equivariance_experiment(H, 1, [BinaryVector(2, 1)], 0.2)
        assert rep.ok
        assert rep.tie_orbits == 1
        assert rep.orbits[0].statuses == ("tie", "tie")
        assert rep.orbits[0].outputs_shift_consistent is None

    def test_weight_two_orbits(self, hamming7_full):
        errors = [BinaryVector.from_bits((1, 1, 0, 0, 0, 0, 0)),
                  BinaryVector.from_bits((1, 0, 1, 0, 0, 0, 0))]
        rep = shift_equivariance_experiment(hamming7_full, 1, errors, 0.05)
        assert rep.ok
