import dataclasses
import logging
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import (
    BinaryMatrix,
    BinaryVector,
    DecodeResult,
    bsc_sample,
    build_relaxed_polytope,
    cyclic_shift,
    enumerate_codewords,
    enumerate_vertices,
    llr_bsc,
    lp_decode,
    mat_vec_mod2,
    ml_decode,
    shift_equivariance_experiment,
)
from conedec import dd, lpdecode, polytope
from conedec.constructions import (
    HAGIWARA_EXPONENTS_C,
    ExponentMatrix,
    blockcirculant_from_circulant,
    hagiwara_css_label_matrix,
    hamming_matrix,
    qc_from_exponents,
    steane_matrix,
)
from conedec.errors import BoundExceeded
from conedec.lpdecode import _record, bsc_errors, rationalize_llr
import reference_gf2
from conftest import assert_compiled_matches_dense, decode_rows
from reference_lpdecode import dot, fraction_lp_decode, rationalize
from reference_simplex import (
    CondensedSimplex,
    FullTableauSimplex,
    all_rows_optimum_is_unique,
    both_pivot_logs,
    dense_simplex,
    solve_pivots,
)


def vertex_costs(H, gamma):
    gr = rationalize(gamma)
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

    def test_subnormal_p(self):
        # 0 < p < 1, but log((1 - p) / p) overflows to inf
        with pytest.raises(ValueError, match="infinite LLR"):
            llr_bsc(BinaryVector.from_string("10"), 1e-320)


def reference_rationalize_llr(gamma):
    """Rationalization with a per-call dict of the distinct values."""
    exact = {x: Fraction(x).limit_denominator(10**6) for x in set(gamma)}
    return tuple(exact[x] for x in gamma)


class TestRationalizeLlr:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**12, 10**12),
        st.fractions(), st.sampled_from((0.0, -0.0, 1, 1.0, Fraction(1), 1e-7, -1e-7)),
    ), max_size=12))
    def test_matches_per_call_dict(self, gamma):
        # unit * c_i is each LLR's approximation, c is a primitive int
        # vector and unit > 0, and unit is 1 when every LLR rationalizes to 0.
        c, unit = rationalize_llr(gamma)
        got = tuple(unit * a for a in c)
        assert got == reference_rationalize_llr(gamma)
        assert all(type(g) is Fraction for g in got)
        assert all(type(a) is int for a in c) and len(c) == len(gamma)
        assert type(unit) is Fraction and unit > 0
        assert math.gcd(*c) == (1 if any(c) else 0)
        assert any(c) or unit == 1

    def test_nan_and_inf_raise_every_time(self):
        for bad, exc in ((math.nan, ValueError), (math.inf, OverflowError),
                         (-math.inf, OverflowError)):
            for _ in range(2):
                cached = lpdecode._scaled_values.cache_info().currsize
                with pytest.raises(exc):
                    rationalize_llr([1.0, bad])
                assert lpdecode._scaled_values.cache_info().currsize == cached


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
            gr = rationalize(gamma)
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

    def test_replace_changes_only_the_objective(self, hamming7):
        # perfbench's wrong_objective fault rebuilds a result this way; a
        # replace that raised would be counted as a caught fault.
        res = lp_decode(hamming7, llr_bsc(BinaryVector.from_string("1100000"), 0.1))
        moved = dataclasses.replace(res, objective=res.objective + 1)
        assert type(moved) is DecodeResult
        assert moved.objective == res.objective + 1
        assert (moved.optimum, moved.integral, moved.status) == (res.optimum, res.integral, res.status)
        assert [f.name for f in dataclasses.fields(DecodeResult)] == [
            "optimum", "objective", "integral", "status"
        ]


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
            gr = rationalize(gamma)
            best = min(
                (sum(g * b for g, b in zip(gr, c)), c.to_tuple()) for c in words
            )
            assert ml_decode(hamming7, gamma).to_tuple() == best[1]

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_tuple_key_reference(self, data):
        H, gamma = data.draw(codes_with_llrs())
        assert ml_decode(H, gamma) == reference_ml_decode(H, gamma)

    def test_equal_llrs_on_hamming_codes(self, hamming7):
        # Equal LLRs make many codewords tie on cost (all of them at 0), so
        # the tie-break decides.
        cases = [(hamming7, [g] * 7) for g in (0.0, 1.0, -1.0, 0.37)]
        cases.append((hamming_matrix(4), [0.0] * 15))
        for H, gamma in cases:
            assert ml_decode(H, gamma) == reference_ml_decode(H, gamma)

    def test_star_repetition_code(self):
        # Rows x_0 + x_j for j = 1..39: the [40,1] repetition code.  Its
        # partial syndromes reachable from 0 number 2^39, and so do those
        # that can reach 0, while the code has two words; only the
        # trellis pruned from both sides stays small.
        H = BinaryMatrix(39, 40, [1 | 1 << j for j in range(1, 40)])
        rng = random.Random(40)
        cases = [[0.0] * 40, [-1.0] * 40, [rng.uniform(-2, 2) for _ in range(40)]]
        cases += [llr_bsc(BinaryVector(40, rng.getrandbits(40)), 0.1) for _ in range(3)]
        for gamma in cases:
            start = time.perf_counter()
            got = ml_decode(H, gamma)
            assert time.perf_counter() - start < 1
            assert got == reference_ml_decode(H, gamma)
        assert ml_decode(H, [-1.0] * 40).weight() == 40

    def test_state_cap(self):
        # The code {(u, u)} with u of length 25: after coordinate 24 every
        # syndrome is live, 2^25 of them, so ml_decode refuses before it walks.
        H = BinaryMatrix(25, 50, [1 << j | 1 << (25 + j) for j in range(25)])
        start = time.perf_counter()
        with pytest.raises(BoundExceeded):
            ml_decode(H, [1.0] * 50)
        assert time.perf_counter() - start < 1

    def test_trellis_plan_once_per_matrix(self, monkeypatch, hamming7, empty_record_cache):
        # Both ends of the trellis and its width are computed once per H: a
        # repeated ml_decode on one H makes no elimination, and a matrix
        # over the state cap raises on every call without one.
        calls = []
        echelon = lpdecode.gf2_row_echelon

        def counted(rows):
            calls.append(rows)
            return echelon(rows)

        monkeypatch.setattr(lpdecode, "gf2_row_echelon", counted)
        gamma = llr_bsc(BinaryVector(7, 0b11), 0.1)  # not a codeword: the trellis is walked
        want = ml_decode(hamming7, gamma)
        assert want == reference_ml_decode(hamming7, gamma)
        assert len(calls) == 2
        for _ in range(3):
            assert ml_decode(hamming7, gamma) == want
        assert len(calls) == 2
        assert set(vars(empty_record_cache[hamming7])) == {"H", "trellis"}
        over = BinaryMatrix(25, 50, [1 << j | 1 << (25 + j) for j in range(25)])
        for _ in range(3):
            with pytest.raises(BoundExceeded):
                ml_decode(over, [1.0] * 50)
        assert len(calls) == 4

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


@st.composite
def trellis_matrices(draw):
    """H with n <= 12 and up to 8 rows, each zero, of weight 1, fresh, a
    copy of an earlier row or the sum of earlier rows."""
    n = draw(st.integers(1, 12))
    rows: list[int] = []
    for _ in range(draw(st.integers(1, 8))):
        kinds = ["zero", "weight-1", "fresh"] + (["copy", "sum"] if rows else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            row = 0
        elif kind == "weight-1":
            row = 1 << draw(st.integers(0, n - 1))
        elif kind == "fresh":
            row = draw(st.integers(0, (1 << n) - 1))
        elif kind == "copy":
            row = draw(st.sampled_from(rows))
        else:
            row = 0
            for r in draw(st.lists(st.sampled_from(rows), min_size=2, max_size=4)):
                row ^= r
        rows.append(row)
    return BinaryMatrix(len(rows), n, rows)


@settings(max_examples=500, deadline=None)
@given(trellis_matrices())
def test_last_coordinate_rows_match_top_bit_reference(H):
    # The ends read from gf2_row_echelon are the coordinates where the
    # top-bit elimination finds a dual word ending, and each row set sums
    # to a dual word whose last coordinate is its key.
    last = lpdecode._last_coordinate_rows(H)
    assert last.keys() == reference_gf2.last_coordinate_rows(H.row_bits).keys()
    for i, m in last.items():
        assert 0 < m < 1 << H.rows
        word = 0
        for j, r in enumerate(H.row_bits):
            if m >> j & 1:
                word ^= r
        assert word.bit_length() - 1 == i


@st.composite
def small_codes_with_errors(draw):
    """H with n <= 8 whose rows may be empty or of weight 1, a BSC error
    pattern and a crossover probability."""
    n = draw(st.integers(1, 8))
    row = st.one_of(
        st.just(0), st.integers(0, n - 1).map(lambda i: 1 << i), st.integers(0, (1 << n) - 1)
    )
    rows = draw(st.lists(row, min_size=1, max_size=5))
    e = BinaryVector(n, draw(st.integers(0, (1 << n) - 1)))
    return BinaryMatrix(len(rows), n, rows), e, draw(st.sampled_from((0.05, 0.1, 0.2, 0.3)))


@st.composite
def codes_with_llrs(draw, max_n=10):
    """H with n <= max_n whose rows may be empty, of weight 1 or copies of
    earlier rows, and LLRs that are all zero, all equal, BSC or uniform;
    Gaussian with the signs of a codeword, nonzero where the code has one;
    or BSC with some entries 0 or small enough to rationalize to 0."""
    n = draw(st.integers(1, max_n))
    rows: list[int] = []
    for _ in range(draw(st.integers(1, 6))):
        kinds = [st.just(0), st.integers(0, n - 1).map(lambda i: 1 << i),
                 st.integers(0, (1 << n) - 1)]
        if rows:
            kinds.append(st.sampled_from(tuple(rows)))
        rows.append(draw(st.one_of(kinds)))
    H = BinaryMatrix(len(rows), n, rows)
    kind = draw(st.sampled_from(("zero", "equal", "bsc", "uniform", "codeword", "near-zero")))
    if kind == "zero":
        gamma = [0.0] * n
    elif kind == "equal":
        gamma = [draw(st.sampled_from((-1.0, -0.5, 0.37, 1.0)))] * n
    elif kind in ("bsc", "near-zero"):
        e = BinaryVector(n, draw(st.integers(0, (1 << n) - 1)))
        gamma = llr_bsc(e, draw(st.sampled_from((0.05, 0.1, 0.3))))
        if kind == "near-zero":
            for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
                gamma[i] = draw(st.sampled_from((0.0, -0.0, 1e-7, -4e-7)))
    elif kind == "uniform":
        gamma = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    else:
        words = [c.bits for c in enumerate_codewords(H)]
        c = draw(st.sampled_from([w for w in words if w] or words))
        rng = draw(st.randoms())
        gamma = [abs(rng.gauss(1.0, 1.2)) * (-1 if c >> i & 1 else 1) for i in range(n)]
    return H, gamma


@settings(max_examples=150, deadline=None)
@given(small_codes_with_errors())
def test_lp_objective_at_most_ml_cost(case):
    H, e, p = case
    gamma = llr_bsc(e, p)
    gr = rationalize(gamma)
    ml_cost = min(
        sum(g for i, g in enumerate(gr) if x >> i & 1)
        for x in range(1 << H.cols)
        if not any((r & x).bit_count() % 2 for r in H.row_bits)
    )
    assert_lp_at_most_ml(H, gamma, ml_cost)


@pytest.mark.usefixtures("empty_record_cache")  # its record is the largest
def test_lp_objective_at_most_ml_cost_hamming31():
    # [31,26] has 2^26 codewords, over the sweep's cap.  The Hamming code is
    # perfect, so for BSC LLRs the ML word is the syndrome decode of the
    # received word: flip the one bit whose column is the syndrome.
    H = hamming_matrix(5)
    columns = H.transpose().row_bits
    rng = random.Random(31)
    statuses = set()
    # The decode LP has 163,871 rows, which hold 85.7 MB (106.8 MB peak;
    # tracemalloc, CPython 3.11); the fixture drops them after the test.
    for _ in range(5):
        e = BinaryVector(31, 0)
        while e.weight() == 0:
            e = bsc_sample(e, 0.05, rng)
        s = mat_vec_mod2(H, e.to_tuple()).bits
        nearest = e.bits ^ (1 << columns.index(s) if s else 0)
        gamma = llr_bsc(e, 0.05)
        assert ml_decode(H, gamma) == BinaryVector(31, nearest)
        ml_cost = sum(g for i, g in enumerate(rationalize(gamma)) if nearest >> i & 1)
        statuses.add(assert_lp_at_most_ml(H, gamma, ml_cost))
    assert statuses == {"codeword", "tie"}


def assert_lp_at_most_ml(H, gamma, ml_cost):
    """Every codeword is a point of the relaxed polytope, so the LP optimum
    is at most the ML cost; a unique integral optimum is the ML word.
    Returns the LP status."""
    res = lp_decode(H, gamma)
    assert res.objective <= ml_cost
    if res.status == "codeword":
        assert res.objective == ml_cost
        assert res.as_binary() == ml_decode(H, gamma)
    return res.status


def reference_ml_decode(H, gamma):
    """ML decoding by the (cost, tuple) key of every codeword."""
    gr = rationalize(gamma)
    best = None
    best_key = None
    for c in enumerate_codewords(H):
        cost = sum(g for g, bit in zip(gr, c) if bit)
        key = (cost, c.to_tuple())
        if best_key is None or key < best_key:
            best, best_key = c, key
    return best


def reference_lp_decode(H, gamma):
    """lp_decode without the hard-decision certificate: every decode solves
    the compiled LP."""
    return fraction_lp_decode(H, gamma, certify=False)


def reference_decode(H, gamma):
    """Decode without the compiled system: build the polytope afresh and
    solve it from Fraction rows, as lp_decode did before compilation."""
    P = build_relaxed_polytope(H)
    gr = rationalize(gamma)
    res = dense_simplex(
        [[Fraction(x) for x in a] for a, _ in P.inequalities],
        [Fraction(b) for _, b in P.inequalities],
        gr,
    ).solve()
    integral = all(v.denominator == 1 for v in res.x)
    status = "tie" if not res.unique else "codeword" if integral else "fractional"
    return status, res.x, dot(gr, res.x)


def decode_triple(H, gamma):
    res = lp_decode(H, gamma)
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

    def test_matches_full_tableau_on_seeded_corpus(self, hamming7, hamming7_full):
        # The core-row simplex decodes every error exactly as the condensed
        # tableau on the same rows (decode_rows) does, along the same pivots
        # in the solve and in the tie check, and as the full tableau does,
        # along the same pivots in the solve.  The full tableau's tie check
        # pivots differently by design and must agree on its answer.
        rng = random.Random(61)
        codes = [(hamming7, 12), (hamming7_full, 12), (steane_matrix(3), 12),
                 (hamming_matrix(4), 4)]
        statuses = set()
        phases = set()
        for H, count in codes:
            A, b = decode_rows(H)
            for t in range(count):
                if t % 2:  # Gaussian LLRs: fractional optima are unique there
                    gamma = [rng.gauss(1.0, 1.2) for _ in range(H.cols)]
                else:
                    p = rng.choice((0.05, 0.1, 0.2))
                    e = BinaryVector(H.cols, 0)
                    while e.weight() < 2:
                        e = bsc_sample(e, p, rng)
                    gamma = llr_bsc(e, p)
                gr = rationalize(gamma)
                # The compiled LP is solved directly: lp_decode skips it on a
                # certified hard decision.
                with both_pivot_logs() as (core, condensed, full):
                    res = _record(H).lp.with_objective(dd.integerize(gr)).solve()
                    ref = CondensedSimplex(A, b, gr).solve()
                    want = FullTableauSimplex(A, b, gr).solve()
                got = lp_decode(H, gamma)
                assert res == ref == want
                assert (got.optimum, got.objective) == (want.x, dot(gr, want.x))
                assert (got.status == "tie") == (not want.unique)
                assert core == condensed
                assert solve_pivots(core) == solve_pivots(full)
                statuses.add(got.status)
                phases.update(phase for phase, _, _ in core)
        assert statuses == {"codeword", "fractional", "tie"}
        assert phases == {"solve", "tie"}

    def test_tie_check_matches_all_rows_check(self, hamming7, hamming7_full):
        # The binding-row tie check against the all-rows check it
        # replaced, at the optimal basis of each decode: the condensed
        # oracle solved on the same LP ends at the same basis, and the
        # all-rows check runs on its tableau.
        rng = random.Random(62)
        cases = []
        for H, count in [(hamming7, 30), (hamming7_full, 30), (steane_matrix(3), 30),
                         (hamming_matrix(4), 12)]:
            for t in range(count):
                if t % 2:
                    gamma = [rng.gauss(1.0, 1.2) for _ in range(H.cols)]
                else:
                    p = rng.choice((0.05, 0.1, 0.2))
                    e = BinaryVector(H.cols, 0)
                    while e.weight() == 0:
                        e = bsc_sample(e, p, rng)
                    gamma = llr_bsc(e, p)
                cases.append((H, gamma))
        G = hagiwara_css_label_matrix()
        for w in (4, 4, 5, 5, 6, 6):
            e = BinaryVector(G.cols, sum(1 << i for i in rng.sample(range(G.cols), w)))
            cases.append((G, llr_bsc(e, 0.03)))
        statuses = set()
        for H, gamma in cases:
            gr = rationalize(gamma)
            sx = _record(H).lp.with_objective(dd.integerize(gr))
            res = sx.solve()
            ref = CondensedSimplex(*decode_rows(H), gr)
            ref.solve()
            assert (sx.basis, sx.nonbasic) == (ref.basis, ref.nonbasic)
            assert res.unique == all_rows_optimum_is_unique(ref)
            integral = all(v.denominator == 1 for v in res.x)
            statuses.add("tie" if not res.unique else "codeword" if integral else "fractional")
        assert statuses == {"codeword", "fractional", "tie"}

    def test_shared_rows_are_never_changed(self, monkeypatch, hamming7, hamming7_full):
        # Every decode pivots a fresh instance over the cached template's
        # sparse rows and column index; none of its pivots may change them.
        # test_simplex checks the same on rows with entries other than
        # -1, 0 and 1.  The rows are compiled from H's sparse rows; they
        # must be those of the dense polytope without its lower box rows
        # (decode_rows).  test_system_builders checks the same on random H.
        rng = random.Random(63)
        mats = (hamming7, steane_matrix(3))
        for t in range(120):
            H = mats[t % 2]
            if t % 3:
                p = rng.choice((0.05, 0.1, 0.2))
                gamma = llr_bsc(bsc_sample(BinaryVector(H.cols, 0), p, rng), p)
            else:
                gamma = [rng.gauss(1.0, 1.2) for _ in range(H.cols)]
            assert decode_triple(H, gamma) == reference_decode(H, gamma)
        # Cap 4 trips on [15,11] (weight 8) and Hagiwara (weight 6).  The
        # compile cache is keyed by H alone, so it is emptied per cap.
        named = (*mats, hamming7_full, hamming_matrix(4), hagiwara_css_label_matrix())
        for cap in (4, 20):
            monkeypatch.setattr(polytope, "ROW_WEIGHT_CAP", cap)
            for H in named:
                lpdecode._records.clear()
                assert_compiled_matches_dense(H)

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

    def test_over_cap_raises_when_certified(self):
        # One check of weight 21, one above ROW_WEIGHT_CAP.  All-positive
        # LLRs certify the zero word, yet the cap is checked first.
        H = BinaryMatrix(1, 21, [(1 << 21) - 1])
        with pytest.raises(BoundExceeded, match="^row 0 has weight 21, above the expansion cap 20$"):
            lp_decode(H, llr_bsc(BinaryVector(21, 0), 0.1))

    def test_one_entry_per_matrix(self, hamming7_full, empty_record_cache):
        # Every decode path on one H shares one record.
        errors = list(bsc_errors(7, 0.2, 3, seed=1))
        lp_decode(hamming7_full, llr_bsc(errors[0], 0.2))
        lp_decode(hamming7_full, llr_bsc(errors[1], 0.2))
        shift_equivariance_experiment(hamming7_full, 1, errors, 0.2)
        ml_decode(hamming7_full, llr_bsc(errors[0], 0.2))
        assert list(empty_record_cache) == [hamming7_full]

    def test_cache_bounded_by_rows(self, monkeypatch, hamming7, hamming7_full,
                                   empty_record_cache):
        records, steane = empty_record_cache, steane_matrix(3)
        rows = {H: len(decode_rows(H)[0]) for H in (hamming7, hamming7_full, steane)}
        # Least recently used first out.  Reading lp builds no other part,
        # so the cap holds 3x7 and 7x7 (31 + 63 rows), and 3x7 and Steane (62).
        monkeypatch.setattr(lpdecode, "CACHE_CAP", rows[hamming7] + rows[hamming7_full])
        a, b = _record(hamming7).lp, _record(hamming7_full).lp
        assert _record(hamming7).lp is a  # 7x7 is now least recently used
        c = _record(steane).lp  # over the cap: 7x7 goes, 3x7 stays
        assert _record(hamming7).lp is a
        assert _record(steane).lp is c
        assert _record(hamming7_full).lp is not b
        assert list(records) == [hamming7_full]
        # A record above the cap on its own is still kept while it is in use.
        monkeypatch.setattr(lpdecode, "CACHE_CAP", 1)
        d = _record(hamming7).lp
        assert _record(hamming7).lp is d
        assert list(records) == [hamming7]

    def test_debug_line_per_eviction(self, monkeypatch, caplog, hamming7, empty_record_cache):
        # One line for the evicted 3x7 record and one for the memo of Steane,
        # which is over the cap alone once its first solve adds keys.
        records, steane = empty_record_cache, steane_matrix(3)
        monkeypatch.setattr(lpdecode, "CACHE_CAP", 40)
        lp_decode(hamming7, llr_bsc(BinaryVector(7, 0b11), 0.1))
        memo = len(records[hamming7].memo)
        assert memo
        with caplog.at_level(logging.DEBUG, logger="conedec.lpdecode"):
            lp_decode(steane, llr_bsc(BinaryVector(14, 1), 0.1))
        evicted, emptied = [r.getMessage() for r in caplog.records if r.name == "conedec.lpdecode"]
        assert evicted == f"record cache: evicted BinaryMatrix(3x7), 31 rows, {memo} memo entries"
        head = "record cache: emptied the memo of BinaryMatrix(6x14), 62 rows, "
        assert emptied.startswith(head) and emptied.endswith(" memo entries")
        assert int(emptied[len(head):].split()[0]) > 0
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        assert list(records) == [steane] and records[steane].memo == {}

    def test_parts_built_when_first_read(self, empty_record_cache):
        # A check of weight 21 has no decode LP, yet ml_decode finds its ML
        # word, and H's record then holds the trellis alone.  lp_decode
        # raises before and after, and a record whose parts all raised is
        # not kept.
        H = BinaryMatrix(1, 21, [(1 << 21) - 1])
        gamma = llr_bsc(BinaryVector(21, 0b1011), 0.1)  # odd weight: the trellis is walked
        over = "^row 0 has weight 21, above the expansion cap 20$"
        with pytest.raises(BoundExceeded, match=over):
            lp_decode(H, gamma)
        assert H not in empty_record_cache
        assert ml_decode(H, gamma) == single_check_ml_decode(21, gamma)
        assert set(vars(empty_record_cache[H])) == {"H", "trellis"}
        with pytest.raises(BoundExceeded, match=over):
            lp_decode(H, gamma)
        assert set(vars(empty_record_cache[H])) == {"H", "trellis"}


def single_check_ml_decode(n, gamma):
    """reference_ml_decode for H = one check on all n coordinates and BSC
    LLRs: the least (cost, tuple) key over every even-weight word, with
    integer costs and bit counts in place of 2^(n-1) BinaryVectors and
    Fraction sums."""
    c, _ = rationalize_llr(gamma)
    assert set(map(abs, c)) == {1}
    pos, neg = (sum(1 << i for i, a in enumerate(c) if a == s) for s in (1, -1))
    best = min((x for x in range(1 << n) if not x.bit_count() & 1),
               key=lambda x: ((x & pos).bit_count() - (x & neg).bit_count(),
                              format(x, f"0{n}b")[::-1]))
    return BinaryVector(n, best)


class TestHardDecisionCertificate:
    @settings(max_examples=300, deadline=None)
    @given(codes_with_llrs(max_n=8))
    def test_lp_matches_reference(self, case):
        H, gamma = case
        assert lp_decode(H, gamma) == reference_lp_decode(H, gamma)

    def test_caps_checked_first(self):
        # All-positive LLRs, so the hard decision 0 is a codeword, on a
        # matrix with a row of weight 21 (above ROW_WEIGHT_CAP) whose
        # trellis needs 2^25 states: both decoders still refuse.
        H = BinaryMatrix(27, 52, [1 << j | 1 << (26 + j) for j in range(26)] + [(1 << 21) - 1])
        with pytest.raises(BoundExceeded):
            lp_decode(H, [1.0] * 52)
        with pytest.raises(BoundExceeded):
            ml_decode(H, [1.0] * 52)

    def test_debug_line_only_when_certified(self, caplog, hamming7):
        for e, lines in ((0, ["lp_decode", "ml_decode"]), (1, [])):
            gamma = llr_bsc(BinaryVector(7, e), 0.05)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="conedec.lpdecode"):
                lp_decode(hamming7, gamma)
                ml_decode(hamming7, gamma)
            recs = [r for r in caplog.records if r.name == "conedec.lpdecode"]
            assert [r.getMessage().split(":")[0] for r in recs] == lines
            assert all(r.levelno == logging.DEBUG for r in recs)


def assert_matches_fraction_pipeline(H, gamma):
    """lp_decode equals the Fraction pipeline field by field, with every
    optimum entry and the objective a Fraction.  Returns the result."""
    got = lp_decode(H, gamma)
    assert got == fraction_lp_decode(H, gamma)
    assert all(type(v) is Fraction for v in got.optimum)
    assert type(got.objective) is Fraction and type(got.integral) is bool
    return got


@st.composite
def mixed_llrs(draw, H):
    """LLRs for H drawn entry by entry from BSC magnitudes, floats, 0.0 and
    -0.0, ints, Fractions of varied denominators and +-1e-300 and +-1e300,
    so that the rationalized entries have different denominators; on a
    coin flip, their magnitudes take the signs of a codeword, so the hard
    decision is often certified."""
    bsc = st.tuples(st.sampled_from((0.01, 0.05, 0.1, 0.3)), st.booleans()).map(
        lambda t: (-1 if t[1] else 1) * math.log((1 - t[0]) / t[0]))
    entry = st.one_of(
        bsc,
        st.floats(-4, 4),
        st.sampled_from((0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300)),
        st.integers(-5, 5),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
    )
    gamma = draw(st.lists(entry, min_size=H.cols, max_size=H.cols))
    if draw(st.booleans()):
        word = draw(st.sampled_from(enumerate_codewords(H))).bits
        gamma = [-abs(g) if word >> i & 1 else abs(g) for i, g in enumerate(gamma)]
    return gamma


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lp_decode_matches_fraction_pipeline(data):
    # H with rows of weight 0 and 1 and repeated rows (trellis_matrices).
    H = data.draw(trellis_matrices().filter(lambda H: H.cols <= 8))
    assert_matches_fraction_pipeline(H, data.draw(mixed_llrs(H)))


def test_fraction_pipeline_on_seeded_corpus(monkeypatch, hamming7, hamming7_full):
    # The five decode codes with BSC LLRs, Gaussian LLRs and BSC LLRs with
    # zeros: every status occurs, and both the certified hard decision and
    # the LP solve are taken.
    from conedec.simplex import ExactSimplex

    solves = []
    solve = ExactSimplex.solve
    monkeypatch.setattr(ExactSimplex, "solve", lambda sx, *a: solves.append(sx) or solve(sx, *a))
    rng = random.Random(31)
    codes = [(hamming7, 24), (hamming7_full, 24), (steane_matrix(3), 24), (hamming_matrix(4), 6),
             (hagiwara_css_label_matrix(), 3)]
    statuses, certified, decodes = set(), 0, 0
    for H, count in codes:
        for t in range(count):
            if t % 3 == 1:
                gamma = [rng.gauss(1.0, 1.2) for _ in range(H.cols)]
            else:
                p = rng.choice((0.05, 0.1))
                gamma = llr_bsc(bsc_sample(BinaryVector(H.cols, 0), p, rng), p)
                if t % 3 == 2:
                    gamma[rng.randrange(H.cols)] = rng.choice((0.0, -0.0))
            before = len(solves)
            statuses.add(assert_matches_fraction_pipeline(H, gamma).status)
            # lp_decode and the pipeline solve once each, unless certified.
            assert len(solves) - before in (0, 2)
            certified += len(solves) == before
            decodes += 1
    assert statuses == {"codeword", "fractional", "tie"}
    assert 0 < certified < decodes


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

    def test_tie_status_invariant_on_tying_orbits(self):
        # The rotation closure of 110000 (the 6-cycle code) ties often at
        # p = 0.2, unlike the 7x7 Hamming closure, so the orbit check meets
        # real ties and must find every tying orbit tied all along.
        r = BinaryVector.from_string("110000")
        H = BinaryMatrix.from_rows([cyclic_shift(r, i).to_tuple() for i in range(6)])
        rng = random.Random(7)
        errors = [bsc_sample(BinaryVector(6, 0), 0.2, rng) for _ in range(200)]
        rep = shift_equivariance_experiment(H, 1, errors, 0.2)
        assert rep.ok
        assert rep.tie_orbits > 0

    def test_weight_two_orbits(self, hamming7_full):
        errors = [BinaryVector.from_bits((1, 1, 0, 0, 0, 0, 0)),
                  BinaryVector.from_bits((1, 0, 1, 0, 0, 0, 0))]
        rep = shift_equivariance_experiment(hamming7_full, 1, errors, 0.05)
        assert rep.ok

    def test_block_circulant_hagiwara_half(self):
        # 21x42 and block circulant with 3x6 blocks: quasi-cyclic for n0 = 6
        # (and so 12), not for n0 = 1.  Both shifts have orbits of 7.
        H = blockcirculant_from_circulant(
            qc_from_exponents(ExponentMatrix.from_rows(HAGIWARA_EXPONENTS_C, 7)), 3, 6, 7
        )
        errors = list(bsc_errors(42, 0.05, 30, 1))
        for n0 in (6, 12):
            rep = shift_equivariance_experiment(H, n0, errors, 0.05)
            assert rep.ok
            assert all(len(r.statuses) == 7 for r in rep.orbits)
            assert 0 < rep.tie_orbits == sum("tie" in r.statuses for r in rep.orbits)
        with pytest.raises(ValueError):
            shift_equivariance_experiment(H, 1, errors, 0.05)
