import functools
import logging
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import BinaryVector, dd, lpdecode
from conedec.constructions import hagiwara_css_label_matrix, hamming_matrix, steane_matrix
from conedec.errors import NumericalFailure
from conedec.lpdecode import (
    _record,
    bsc_errors,
    llr_bsc,
    lp_decode,
    ml_decode,
    rationalize_llr,
)
from conedec.qcimprove import add_qc_shifts
from conedec.simplex import MAX_PIVOTS, ExactSimplex
from reference_lpdecode import dot, rationalize
from reference_simplex import (
    CondensedSimplex,
    FullTableauSimplex,
    all_rows_optimum_is_unique,
    binding_tie_rows,
    both_pivot_logs,
    condensed_tableau,
    degenerate_rows_optimum_is_unique,
    dense_simplex,
    pivot_log,
    reference_leaving,
    reference_tie_rows,
    solve_pivots,
)


def test_box_corner():
    res = dense_simplex([[1, 0], [0, 1]], [1, 1], [-1, -1]).solve()
    assert res.x == (Fraction(1), Fraction(1))
    assert res.objective == -2
    assert res.unique


def test_zero_objective_segment_ties():
    res = dense_simplex([[1]], [1], [0]).solve()
    assert res.objective == 0 and type(res.objective) is Fraction
    assert not res.unique


def test_degenerate_duplicate_rows_unique():
    res = dense_simplex([[1], [1]], [1, 1], [-1]).solve()
    assert res.x == (Fraction(1),)
    assert res.unique


def test_fractional_data():
    # min -x1 - x2 with x1 + 2 x2 <= 2, 2 x1 + x2 <= 2: optimum (2/3, 2/3).
    res = dense_simplex([[1, 2], [2, 1]], [2, 2], [-1, -1]).solve()
    assert res.x == (Fraction(2, 3), Fraction(2, 3))
    assert res.objective == Fraction(-4, 3)
    assert res.unique


def test_alternate_optima_detected():
    # Objective parallel to a facet: the whole edge x1 + x2 = 1 is optimal.
    res = dense_simplex([[1, 1]], [1], [-1, -1]).solve()
    assert res.objective == -1
    assert not res.unique


def test_degenerate_vertex_still_unique():
    # Three facets through the optimum (1, 1) in 2D: degenerate but unique.
    res = dense_simplex([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [-1, -2]).solve()
    assert res.x == (Fraction(1), Fraction(1))
    assert res.unique


def test_rational_coefficients():
    res = dense_simplex(
        [[Fraction(1, 2), Fraction(1, 3)]], [Fraction(5, 6)], [Fraction(-1), 0]
    ).solve()
    assert res.x[0] == Fraction(5, 3)
    assert res.unique


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        dense_simplex([[1]], [-1], [1]).solve()


def test_unbounded_raises():
    with pytest.raises(NumericalFailure):
        dense_simplex([[-1]], [0], [-1]).solve()


MALFORMED_ROWS = [
    [((-1, 1),)],  # once filed under the last column
    [((5, 1),)],  # once an IndexError
    [((2, 1),)],
    [((0, 0),)],
    [((0, 1), (1, 0))],
    [((0, 1), (0, 1))],
    [((1, 1),), ((0, 2), (1, 1), (0, -1))],
]


@pytest.mark.parametrize(
    "rows, b",
    [pytest.param(rows, [1] * len(rows), id=f"rows{i}") for i, rows in enumerate(MALFORMED_ROWS)]
    + [
        # Once solved with floored Fractions: x = (0, 3/4), not (3/4, 3/4).
        pytest.param([((0, Fraction(1, 3)), (1, 1)), ((0, 1), (1, Fraction(1, 3)))], [1, 1],
                     id="fraction-coefficient"),
        pytest.param([((0, 1.5),)], [1], id="float-coefficient"),
        pytest.param([((1.0, 1),)], [1], id="float-column"),  # once a TypeError
        pytest.param([((0, 1),)], [Fraction(1, 2)], id="fraction-rhs"),
        pytest.param([((0, 1),)], [1.0], id="float-rhs"),
        pytest.param([((0, 1),)], [1, 1], id="long-b"),  # once accepted
        pytest.param([((0, 1),), ((1, 1),)], [1], id="short-b"),  # once an IndexError
    ],
)
def test_malformed_rows_rejected(rows, b):
    # Columns must be distinct ints in range(n), coefficients nonzero ints,
    # and each row has one int rhs.
    with pytest.raises(ValueError):
        ExactSimplex(2, rows, b, [0, -1])


@pytest.mark.parametrize("c", [[0, Fraction(1, 2)], [0, Fraction(1)], [0, 1.0], [0, True]])
def test_non_int_objective_rejected(c):
    # The objective is n ints, as the rows are: a rational one is scaled to
    # integers (dd.integerize) by the caller.
    rows, b = [((0, 1),), ((1, 1),)], [1, 1]
    with pytest.raises(ValueError):
        ExactSimplex(2, rows, b, c)
    with pytest.raises(ValueError):
        ExactSimplex(2, rows, b, [0, 0]).with_objective(c)


@st.composite
def boxed_lps(draw):
    """Integer LPs with b >= 0, kept bounded by box rows, plus a positive
    Fraction factor per row (None leaves the row as ints)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    coef = st.integers(-3, 3)
    A = [[draw(coef) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(0, 4)) for _ in range(m)]
    A += [[int(i == j) for j in range(n)] for i in range(n)]
    b += [draw(st.integers(0, 3)) for _ in range(n)]
    c = [draw(coef) for _ in range(n)]
    factor = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    scales = [draw(st.none() | factor) for _ in range(m + n)]
    return A, b, c, scales


@settings(max_examples=60, deadline=None)
@given(boxed_lps())
def test_scaled_rows_give_identical_results(lp):
    # Scaling a row by a positive factor changes neither the region nor
    # Bland's pivot path, so results must be equal.
    A, b, c, scales = lp
    scaled = dense_simplex(*scale_rows(A, b, scales), c)
    assert scaled.solve() == dense_simplex(A, b, c).solve()


def scale_rows(A, b, scales):
    A = [a if q is None else [q * x for x in a] for a, q in zip(A, scales)]
    b = [beta if q is None else q * beta for beta, q in zip(b, scales)]
    return A, b


@st.composite
def varied_lps(draw):
    """boxed_lps with its Fraction-scaled rows applied, and, on a coin
    flip each, a zero objective (every feasible point is optimal) and a
    duplicated row (a degenerate vertex)."""
    A, b, c, scales = draw(boxed_lps())
    A, b = scale_rows(A, b, scales)
    if draw(st.booleans()):
        c = [0] * len(c)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(A) - 1))
        A, b = A + [A[k]], b + [b[k]]
    return A, b, c


@settings(max_examples=200, deadline=None)
@given(varied_lps())
def test_condensed_tableau_matches_full_tableau(lp):
    # The core-row simplex must make every pivot the condensed tableau
    # makes, in the tie check too, and the same pivots as the full tableau
    # in the main solve.  The full tableau's tie check pivots differently
    # by design (all rows against binding rows); got == want compares
    # their answers.
    A, b, c = lp
    with both_pivot_logs() as (core, condensed, full):
        got = dense_simplex(A, b, c).solve()
        ref = CondensedSimplex(A, b, c).solve()
        want = FullTableauSimplex(A, b, c).solve()
    assert got == ref == want
    assert core == condensed
    assert solve_pivots(core) == solve_pivots(full)


def test_condensed_tableau_covers_both_phases():
    # An LP whose tie check still pivots: the unit cube cut by
    # -x1 + x2 + x3 <= 1, min x1 - x2 - x3.  The optimum (0, 1, 0) is a
    # degenerate vertex (x2 <= 1 is tight as well), and the optimal face
    # also holds (0, 0, 1) and (1, 1, 1).
    A = [[-1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    b, c = [1, 1, 1, 1], [1, -1, -1]
    with both_pivot_logs() as (core, condensed, full):
        got = dense_simplex(A, b, c).solve()
        ref = CondensedSimplex(A, b, c).solve()
        want = FullTableauSimplex(A, b, c).solve()
    assert got == ref == want and not got.unique
    assert got.x == (0, 1, 0)
    assert core == condensed
    assert solve_pivots(core) == solve_pivots(full)
    assert {phase for phase, _, _ in core} == {"solve", "tie"}


def one_pivot(sx):
    """Run at most one pivot: True at an optimum, False on a ray, None
    after a pivot."""
    try:
        return sx._run(1)
    except NumericalFailure:
        return None


@settings(max_examples=300, deadline=None)
@given(varied_lps())
def test_derived_rows_equal_condensed_tableau(lp):
    # At every basis along the path, each core row and each row derived
    # for a basic slack is the condensed tableau's row there, exactly, and
    # so are d and the objective row.
    sx, ref = dense_simplex(*lp), CondensedSimplex(*lp)
    while True:
        assert (sx.basis, sx.nonbasic, sx.d) == (ref.basis, ref.nonbasic, ref.d)
        assert sx.obj == ref.T[-1]
        rhs = sx._slack_rhs()
        for i, v in enumerate(sx.basis):
            if v < sx.n:
                assert sx.core[v] == ref.T[i]
            else:
                assert sx._slack_row(v - sx.n) == ref.T[i]
                assert rhs[v - sx.n] == ref.T[i][-1]
        assert set(sx.core) == {v for v in sx.basis if v < sx.n}
        done = one_pivot(sx)
        assert done == one_pivot(ref)
        if done is not None:
            break


def recorded_tie_check(sx):
    """Run sx's tie check and return its answer and the rows it hands its
    auxiliary LP, None if it builds none; sx must be at an optimal basis.
    The column index handed along with the rows must be the one __init__
    builds from them, over one column per zero reduced cost."""
    taken = []
    binding_rows = ExactSimplex._binding_rows

    def recording(self, zero_cols):
        rows = binding_rows(self, zero_cols)
        if self is sx:
            taken.append(rows)
        return rows

    ExactSimplex._binding_rows = recording
    try:
        unique = sx._optimum_is_unique()
    finally:
        ExactSimplex._binding_rows = binding_rows
    if not taken:
        return unique, None
    [(rows, cols)] = taken
    ref = ExactSimplex(len(cols), rows, [0] * len(rows), [0] * len(cols))
    assert cols == ref._cols == ref._zero_cols
    assert len(cols) == sx.obj[:-1].count(0)
    return unique, list(rows)


def tie_check_rows(sx):
    """The rows sx's tie check hands its auxiliary LP (recorded_tie_check)."""
    return recorded_tie_check(sx)[1]


@settings(max_examples=300, deadline=None)
@given(varied_lps())
def test_tie_check_rows_equal_condensed_degenerate_rows(lp):
    # The auxiliary LP takes the condensed tableau's degenerate rows with a
    # positive entry over the zero-reduced-cost columns, in row order, as
    # sparse rows.
    sx, ref = dense_simplex(*lp), CondensedSimplex(*lp)
    assert sx._run(MAX_PIVOTS) and ref._run(MAX_PIVOTS)
    taken = tie_check_rows(sx)
    T = ref.T
    zero_cols = sorted(
        (j for j in range(ref.n) if T[-1][j] == 0), key=ref.nonbasic.__getitem__
    )
    if not zero_cols:
        assert taken is None
        return
    want = [[row[j] for j in zero_cols] for row in T[:-1] if row[-1] == 0]
    sparse = [tuple((t, x) for t, x in enumerate(row) if x) for row in want if max(row) > 0]
    assert taken == sparse


@settings(max_examples=500, deadline=None)
@given(varied_lps())
def test_degenerate_row_tie_check_matches_all_rows_check(lp):
    # The condensed oracle solved on the same LP ends at the same optimal
    # basis; the all-rows check runs on its tableau.
    sx, ref = dense_simplex(*lp), CondensedSimplex(*lp)
    res = sx.solve()
    ref.solve()
    assert (sx.basis, sx.nonbasic) == (ref.basis, ref.nonbasic)
    assert res.unique == all_rows_optimum_is_unique(ref)


def basis_kind(sx, s):
    """The kind of sx's basis that the ratio test meets in column s: the
    slack basis, a basic structural at zero with a positive entry (ratio
    0), every basic structural at zero (the origin), or some basic
    structural off zero."""
    if not sx.core:
        return "slack basis"
    if any(row[s] > 0 and not row[-1] for row in sx.core.values()):
        return "structural at ratio 0"
    if not any(row[-1] for row in sx.core.values()):
        return "structurals at zero"
    return "structural off zero"


def assert_matches_reference(sx, leaving=ExactSimplex._leaving):
    """At sx's basis, the ratio test of every column (not only those with a
    negative reduced cost) equals the rhs-pass reference, and the binding
    rows the tie check would take there are the reference's degenerate rows
    with a positive entry.  Returns the basis_kind of each column."""
    for s in range(sx.n):
        assert leaving(sx, s) == reference_leaving(sx, s)
    zero_cols = sorted([l for l in range(sx.n) if sx.obj[l] == 0], key=sx.nonbasic.__getitem__)
    if zero_cols:
        assert list(sx._binding_rows(zero_cols)[0]) == binding_tie_rows(sx)
    if not sx.core:
        # d is the determinant of the basis matrix, so 1 at a slack basis.
        assert sx.d == 1
    return {basis_kind(sx, s) for s in range(sx.n)}


@contextmanager
def ratio_tests_checked():
    """While entered, every ExactSimplex checks its basis against the
    reference (assert_matches_reference) before each ratio test, in the
    tie check's auxiliary LP too.  Yields the set of basis kinds seen."""
    leaving, kinds = ExactSimplex._leaving, set()

    def checked(self, s):
        kinds.update(assert_matches_reference(self, leaving))
        return leaving(self, s)

    ExactSimplex._leaving = checked
    try:
        yield kinds
    finally:
        ExactSimplex._leaving = leaving


def assert_solve_matches_reference(sx):
    """Solve sx with every basis checked (ratio_tests_checked), then check
    the tie check's rows at the optimum against binding_tie_rows.
    Returns the basis kinds seen."""
    with ratio_tests_checked() as kinds:
        assert sx._run(MAX_PIVOTS)
        assert tie_check_rows(sx) == binding_tie_rows(sx)
    return kinds


@settings(max_examples=300, deadline=None)
@given(varied_lps())
def test_ratio_test_matches_reference_along_path(lp):
    assert_solve_matches_reference(dense_simplex(*lp))


@st.composite
def degenerate_lps(draw):
    """Small LPs, not always bounded, with half their rhs 0."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    coef = st.integers(-2, 2)
    A = [[draw(coef) for _ in range(n)] for _ in range(m)]
    b = [draw(st.sampled_from((0, 0, 1, 2))) for _ in range(m)]
    return A, b, [0] * n


@settings(max_examples=400, deadline=None)
@given(varied_lps() | degenerate_lps(), st.lists(st.integers(0, 3), max_size=20))
def test_ratio_test_matches_reference_on_any_walk(lp, choices):
    # Feasible bases off Bland's path: each step enters a drawn column,
    # whatever its reduced cost, so structurals also leave, slacks come
    # back at other basis positions, and the slack basis returns with the
    # nonbasic columns permuted.
    sx = dense_simplex(*lp)
    for choice in choices:
        assert_matches_reference(sx)
        s = choice % sx.n
        r = sx._leaving(s)
        if r >= 0:
            sx._pivot(r, s)
    assert_matches_reference(sx)


def test_ratio_test_ties_by_variable_not_position():
    # After three pivots, the slacks of rows 0 and 1 (both b_k = 0) are
    # basic at positions 2 and 1: the tie in ratio 0 goes to the smaller
    # variable, slack 2, at the larger position.
    sx = dense_simplex([[0, 1], [0, 1], [1, -1]], [0, 0, 0], [0, 0])
    for s in (0, 1, 1):
        sx._pivot(sx._leaving(s), s)
        assert_matches_reference(sx)
    assert sx.basis == [1, 3, 2] and sx._leaving(0) == sx._leaving(1) == 2


def test_ratio_test_back_at_slack_basis():
    # Four pivots return to the slack basis with the nonbasic columns in
    # the order 2, 0, 1.  d is not 1 in between, but it is 1 again there:
    # no basis without a basic structural has d != 1.
    sx = dense_simplex([[3, 2, 3], [-1, 2, 0]], [3, 3], [0, 0, 0])
    ds = []
    for s in (2, 0, 1, 2):
        sx._pivot(sx._leaving(s), s)
        ds.append(sx.d)
        assert_matches_reference(sx)
    assert sx.core == {} and sx.nonbasic == [2, 0, 1] and sx.d == 1
    assert any(d != 1 for d in ds)


@functools.cache
def decode_code(name):
    H3 = hamming_matrix(3, cyclic=True)
    return {"3x7": H3, "7x7": add_qc_shifts(H3, H3.row(0), 1), "steane": steane_matrix(3),
            "15_11": hamming_matrix(4), "hagiwara": hagiwara_css_label_matrix()}[name]


def seeded_llrs(H, seed, gaussian):
    """Gaussian LLRs, or the BSC LLRs of a nonzero error at p in 0.05-0.2."""
    rng = random.Random(seed)
    if gaussian:
        return [rng.gauss(1.0, 1.2) for _ in range(H.cols)]
    p = rng.choice((0.05, 0.1, 0.2))
    bits = 0
    while not bits:
        bits = sum(1 << i for i in range(H.cols) if rng.random() < p)
    return llr_bsc(BinaryVector(H.cols, bits), p)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["3x7", "7x7", "steane", "15_11"]), st.integers(0, 2**32), st.booleans())
def test_ratio_test_matches_reference_on_decode_lps(code, seed, gaussian):
    # The compiled LP is solved directly: lp_decode skips it on a
    # certified hard decision.
    H = decode_code(code)
    c, _ = rationalize_llr(seeded_llrs(H, seed, gaussian))
    assert_solve_matches_reference(_record(H).lp.with_objective(c))


def decode_lp(code, seed, gaussian):
    """The compiled decode LP of a named code with seeded LLRs, unsolved.
    It is solved directly: lp_decode skips it on a certified hard
    decision."""
    H = decode_code(code)
    return _record(H).lp.with_objective(rationalize_llr(seeded_llrs(H, seed, gaussian))[0])


def assert_tie_check_matches_oracles(sx):
    """At sx's optimal basis, the tie check takes binding_tie_rows(sx) and
    answers as the check that takes every degenerate row and as the check
    that takes every row.  Returns the number of degenerate rows dropped."""
    unique, rows = recorded_tie_check(sx)
    assert rows == binding_tie_rows(sx)
    assert unique == degenerate_rows_optimum_is_unique(sx)
    assert unique == all_rows_optimum_is_unique(condensed_tableau(sx))
    return len(reference_tie_rows(sx) or ()) - len(rows or ())


@settings(max_examples=300, deadline=None)
@given(
    varied_lps()
    | degenerate_lps()
    | st.tuples(st.sampled_from(["3x7", "7x7", "steane", "15_11", "hagiwara"]),
                st.integers(0, 2**32), st.booleans())
)
def test_binding_row_tie_check_matches_oracles(lp):
    sx = decode_lp(*lp) if isinstance(lp[0], str) else dense_simplex(*lp)
    if sx._run(MAX_PIVOTS):  # a degenerate_lps draw may be unbounded
        assert_tie_check_matches_oracles(sx)


def test_binding_row_tie_check_drops_rows_on_decode_lps():
    # The dropped rows are most of the degenerate rows of the decode LPs,
    # and the seeded corpus has both answers.
    dropped, answers = 0, set()
    for code in ("3x7", "steane", "15_11", "hagiwara"):
        for seed in range(6):
            sx = decode_lp(code, seed, seed % 2)
            assert sx._run(MAX_PIVOTS)
            dropped += assert_tie_check_matches_oracles(sx)
            answers.add(sx._optimum_is_unique())
    assert dropped > 0 and answers == {True, False}


def test_dropped_row_gains_a_positive_entry():
    # With a zero objective the slack basis is optimal, both columns have
    # a zero reduced cost, and rows 0 and 1 are degenerate.  Row 0,
    # -x1 <= 0, has no positive entry, so the tie check drops it.  In the
    # auxiliary LP over both degenerate rows, the first pivot (x1 enters
    # at row 1, x1 + x2 <= 0) gives row 0 a positive entry in x2's column:
    # -x1 = x2 + s1.  The cone {u >= 0 : W_D u <= 0} is {0} either way.
    lp = [[-1, 0], [1, 1], [1, 0], [0, 1]], [0, 0, 1, 1], [0, 0]
    sx = dense_simplex(*lp)
    assert sx._run(MAX_PIVOTS) and sx.core == {}
    assert reference_tie_rows(sx) == [((0, -1),), ((0, 1), (1, 1))]
    assert assert_tie_check_matches_oracles(sx) == 1
    assert tie_check_rows(sx) == [((0, 1), (1, 1))]
    aux = ExactSimplex(2, reference_tie_rows(sx), [0, 0], [-1, -1])
    assert one_pivot(aux) is None and aux.basis == [2, 0]
    assert max(aux._slack_row(0)[:-1]) > 0
    assert sx.solve().unique


def test_ratio_test_covers_every_shortcut():
    kinds = set()
    for code in ("3x7", "7x7", "steane", "15_11"):
        H = decode_code(code)
        for seed in range(12):
            c, _ = rationalize_llr(seeded_llrs(H, seed, seed % 2))
            kinds |= assert_solve_matches_reference(_record(H).lp.with_objective(c))
    assert kinds == {"slack basis", "structural at ratio 0", "structurals at zero",
                     "structural off zero"}


def test_zero_word_decode_makes_no_rhs_pass(monkeypatch, empty_record_cache):
    # A weight-1 error on [15,11] has the zero word, the start vertex, as
    # its optimum (in a tie, as BSC LLRs often give): every pivot is
    # degenerate and every basic structural stays at zero, so neither the
    # ratio tests nor the tie check need an m-row rhs pass.  The tie
    # check's auxiliary LP skips __init__'s row checks.  The system is
    # compiled afresh, so its memo is empty: a memo warmed by an earlier
    # test would serve these ratio tests without a call to _leaving.
    H = hamming_matrix(4)
    _record(H).lp
    calls = {"rhs": 0, "init": 0, "ratio": 0}
    slack_rhs, init, leaving = ExactSimplex._slack_rhs, ExactSimplex.__init__, ExactSimplex._leaving

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(ExactSimplex, "_slack_rhs", counted("rhs", slack_rhs))
    monkeypatch.setattr(ExactSimplex, "__init__", counted("init", init))
    monkeypatch.setattr(ExactSimplex, "_leaving", counted("ratio", leaving))
    for i in range(H.cols):
        res = lp_decode(H, llr_bsc(BinaryVector(H.cols, 1 << i), 0.05))
        assert not any(res.optimum)
    assert calls["ratio"] >= H.cols
    assert calls["rhs"] == calls["init"] == 0


def test_no_rhs_pass_at_the_origin(monkeypatch):
    # At the origin every basic structural sits at zero, so rhs_k = d * b_k:
    # neither the ratio test nor the tie check makes an rhs pass there.
    # The corpus holds ratio tests at the origin, off the slack basis, that
    # no row of b_k = 0 settles: the general pass picks a row of b_k > 0.
    calls = {"rhs at origin": 0, "general pass at origin": 0}
    slack_rhs, leaving = ExactSimplex._slack_rhs, ExactSimplex._leaving

    def counted_rhs(self):
        calls["rhs at origin"] += self._at_origin()
        return slack_rhs(self)

    def counted_leaving(self, s):
        origin = bool(self.core) and self._at_origin()
        r = leaving(self, s)
        v = self.basis[r] - self.n if r >= 0 else -1
        calls["general pass at origin"] += origin and v >= 0 and self._b[v] > 0
        return r

    monkeypatch.setattr(ExactSimplex, "_slack_rhs", counted_rhs)
    monkeypatch.setattr(ExactSimplex, "_leaving", counted_leaving)
    for code in ("3x7", "7x7", "steane", "15_11", "hagiwara"):
        for seed in range(6):
            for gaussian in (False, True):
                decode_lp(code, seed, gaussian).solve()
    assert calls["rhs at origin"] == 0
    assert calls["general pass at origin"] > 0


def stored_rows(sx):
    """The constraint data an instance shares with with_objective."""
    return sx._rows, sx._b, sx._cols


@settings(max_examples=200, deadline=None)
@given(varied_lps(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_with_objective_never_changes_the_shared_rows(lp, c2):
    # Every instance that with_objective starts shares the template's
    # sparse rows and column index, a pivoted instance's too; no pivot may
    # change them.  Entries other than 0 and 1 make a pivot's d differ from
    # the pivot element.  dense_simplex integerizes its objective, so the
    # objectives handed to with_objective are integerized too.
    A, b, c = lp
    c2 = c2[: len(c)]
    template = dense_simplex(A, b, [0] * len(c))
    first = template.with_objective(dd.integerize(c))
    assert first.solve() == dense_simplex(A, b, c).solve()
    assert first.with_objective(dd.integerize(c2)).solve() == dense_simplex(A, b, c2).solve()
    assert template.with_objective(dd.integerize(c2)).solve() == dense_simplex(A, b, c2).solve()
    assert all(x is y for x, y in zip(stored_rows(first), stored_rows(template)))
    assert stored_rows(template) == stored_rows(dense_simplex(A, b, [0] * len(c)))
    with pytest.raises(ValueError):
        template.with_objective([*c, 0])


def test_condensed_tableau_shape():
    A, b, c = [[1, 2], [3, 4], [5, 6]], [1, 1, 1], [-1, -1]
    ref = CondensedSimplex(A, b, c)
    assert len(ref.T) == 4 and all(len(row) == 3 for row in ref.T)
    sx = dense_simplex(A, b, c)
    assert sx.basis == [2, 3, 4] and sx.nonbasic == [0, 1] and sx.core == {}
    assert sx._rows == (((0, 1), (1, 2)), ((0, 3), (1, 4)), ((0, 5), (1, 6)))
    assert sx._cols == (((0, 1), (1, 3), (2, 5)), ((0, 2), (1, 4), (2, 6)))
    # At most n core rows of n + 1 integers, one per basic structural.
    sx.solve()
    assert 0 < len(sx.core) <= sx.n
    assert all(j < sx.n and len(row) == sx.n + 1 for j, row in sx.core.items())
    assert set(sx.core) == {v for v in sx.basis if v < sx.n}


def test_column_index_shares_row_entries(hamming7):
    # Row k's columns hold one (k, a) object per distinct coefficient a,
    # in a dense system with mixed coefficients and in the compiled 3x7 LP.
    dense = dense_simplex([[1, 2, 1, -1, 2], [3, 0, 3, 3, 0]], [1, 1], [0] * 5)
    for sx in (dense, _record(hamming7).lp):
        for k, pairs in enumerate(sx._rows):
            entries = [e for col in sx._cols for e in col if e[0] == k]
            assert len(entries) == len(pairs)
            assert len({id(e) for e in entries}) == len({a for _, a in pairs})


@pytest.mark.parametrize(
    "lp",
    [
        # Tied at a degenerate vertex: the tie check pivots.
        ([[-1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1, 1], [1, -1, -1]),
        # Tied on an edge with no degenerate row: the check takes no row.
        ([[1, 1]], [1], [-1, -1]),
        # Unique at a degenerate vertex: no reduced cost is zero.
        ([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [-1, -2]),
        # Zero objective: every column has a zero reduced cost.
        ([[2, 1, 0], [0, 1, 3], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [2, 0, 1, 1, 1], [0, 0, 0]),
        # Zero objective, and one degenerate row with no positive entry.
        ([[-1, 0], [1, 1], [1, 0], [0, 1]], [0, 0, 1, 1], [0, 0]),
    ],
)
def test_debug_line_counts_match_pivot_log(lp, caplog):
    with both_pivot_logs() as (core, _, _):
        with caplog.at_level(logging.DEBUG, logger="conedec.simplex"):
            sx = dense_simplex(*lp)
            sx.solve()
    (rec,) = caplog.records
    assert rec.levelno == logging.DEBUG and rec.name == "conedec.simplex"
    rows, solve, memo, tie, binding, basic = (
        int(w) for w in rec.getMessage().split() if w.isdigit()
    )
    assert rows == len(lp[0])
    assert solve == len(solve_pivots(core))
    assert memo == 0  # no memo given, so every ratio test ran
    assert tie == len(core) - solve
    assert basic == len(sx.core) == sum(v < sx.n for v in sx.basis)
    # The oracle's tableau at the same basis: the binding rows the tie
    # check took (rhs 0 and a positive entry over the zero-reduced-cost
    # columns), none when no reduced cost is zero.
    ref = CondensedSimplex(*lp)
    ref.solve()
    T = ref.T
    zero_cols = [j for j in range(ref.n) if T[-1][j] == 0]
    assert binding == sum(row[-1] == 0 and any(row[j] > 0 for j in zero_cols) for row in T[:-1])


@contextmanager
def calls_of(name):
    """The instances on which the ExactSimplex method name runs inside the
    block, one entry per call."""
    ran = []
    method = getattr(ExactSimplex, name)

    def counted(self, *args):
        ran.append(self)
        return method(self, *args)

    setattr(ExactSimplex, name, counted)
    try:
        yield ran
    finally:
        setattr(ExactSimplex, name, method)


def raised_cost(sx, gr):
    """gr with the cost of every nonbasic structural of positive reduced
    cost at sx's optimal basis raised by one.  The basis stays optimal with
    the same zero-reduced-cost set, and a pivot path on which none of these
    columns entered is unchanged, as Bland's rule enters the smallest
    variable of negative reduced cost."""
    up = {v for v, r in zip(sx.nonbasic, sx.obj) if v < sx.n and r > 0}
    return tuple(g + 1 if j in up else g for j, g in enumerate(gr))


def assert_memo_answers(system, ties, c, free, ref):
    """Solve c on system with the memo ties, and check the optimum and the
    answer against free, a memo-free solve of an objective with c's integer
    row: a key already in the memo answers without a tie check, and a new
    one is stored.  Returns whether the solve ended at the basis of ref, a
    memo-free instance, and so at its key."""
    known = set(ties)
    sx = system.with_objective(c)
    with calls_of("_optimum_is_unique") as ran:
        res = sx.solve(ties)
    assert (res.x, res.unique) == (free.x, free.unique)
    key = sx._tie_key()
    assert key is None or ties[key] is res.unique
    assert (ran == []) == (key in known)
    same = (sx.basis, sx.nonbasic) == (ref.basis, ref.nonbasic)
    assert not same or key == ref._tie_key()
    return same


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["3x7", "7x7", "steane", "15_11", "hagiwara"]), st.integers(0, 2**32),
       st.booleans(), st.integers(2, 9))
def test_tie_memo_matches_memo_free_check(code, seed, gaussian, scale):
    # lp_decode's memo of a compiled system answers as the tie check of a
    # memo-free instance and as the all-rows check at the same basis.  The
    # objective is solved twice, so the second solve finds its key, then
    # scaled: integerize divides the scale out, so the memo-free answer is
    # the same and so is the path, and so does the integer objective scaled
    # by the same factor.  Where some reduced cost is zero, raised costs are
    # solved too; they may end at another basis.  The simplex takes
    # integer objectives, so each rational one is integerized.
    H = decode_code(code)
    rec = _record(H)
    system, ties = rec.lp, rec.memo
    gr = rationalize(seeded_llrs(H, seed, gaussian))
    ref = system.with_objective(dd.integerize(gr))
    want = ref.solve()
    assert want.unique == ref._optimum_is_unique()
    assert want.unique == all_rows_optimum_is_unique(condensed_tableau(ref))
    scaled = tuple(scale * g for g in gr)
    assert dd.integerize(scaled) == dd.integerize(gr)
    for c in (gr, gr, scaled):
        assert assert_memo_answers(system, ties, dd.integerize(c), want, ref)
    assert assert_memo_answers(system, ties, tuple(scale * a for a in ref.c), want, ref)
    key = ref._tie_key()
    if key is not None:
        assert ties[key] is want.unique
        raised = dd.integerize(raised_cost(ref, gr))
        assert_memo_answers(system, ties, raised, system.with_objective(raised).solve(), ref)


def test_tie_memo_serves_distinct_objectives():
    # Objectives whose integer rows differ reach one optimal basis, and the
    # second is answered from the memo, on every code.
    for code in ("3x7", "steane", "15_11", "hagiwara"):
        H = decode_code(code)
        system = _record(H).lp
        served = 0
        for seed in range(12):
            ties = {}
            gr = rationalize(seeded_llrs(H, seed, False))
            ref = system.with_objective(dd.integerize(gr))
            want = ref.solve(ties)
            raised = raised_cost(ref, gr)
            if ref._tie_key() is not None and raised != gr:
                raised = dd.integerize(raised)
                free = system.with_objective(raised).solve()
                served += assert_memo_answers(system, ties, raised, free, ref)
        assert served > 0, code


def test_solve_without_memo_runs_every_tie_check():
    sx = decode_lp("15_11", 3, False)
    solved = [sx.with_objective(sx.c) for _ in range(3)]
    with calls_of("_optimum_is_unique") as ran, calls_of("_leaving") as ratio_tests:
        for one in solved:
            one.solve()
    assert len(ran) == 3
    # Every ratio test runs too: one _leaving call per pivot.
    assert solved[0].pivots > 0
    assert [ratio_tests.count(one) for one in solved] == [solved[0].pivots] * 3
    assert all(one._memo_ratio_tests == 0 for one in solved)


def logged_solve(sx, memo=None):
    """sx.solve(memo) and the pivot_log of the solve, tie check included."""
    with pivot_log(ExactSimplex, lambda sx, s: sx.nonbasic[s]) as log:
        res = sx.solve(memo)
    return res, log


MEMO_CODES = ["3x7", "7x7", "steane", "15_11", "hagiwara"]


@settings(max_examples=200, deadline=None)
@given(varied_lps().flatmap(lambda lp: st.tuples(
           st.just(lp), st.lists(st.integers(-3, 3), min_size=len(lp[2]), max_size=len(lp[2]))))
       | st.tuples(st.sampled_from(MEMO_CODES), st.integers(0, 2**32), st.booleans()))
def test_memo_replays_the_memo_free_pivot_log(case):
    # Each objective is solved twice with one memo, then a second objective
    # with the same memo: every solve takes exactly the pivots of a
    # memo-free solve of its objective and returns the same result, and
    # the repeated solve takes every leaving variable from the memo.  The
    # generic LPs have entries other than +-1, so d differs from the pivot
    # element.
    if isinstance(case[0], str):
        code, seed, gaussian = case
        H = decode_code(code)
        system = _record(H).lp
        objectives = [rationalize_llr(seeded_llrs(H, s, gaussian))[0] for s in (seed, seed + 1)]
    else:
        (A, b, c), c2 = case
        system = dense_simplex(A, b, [0] * len(c))
        objectives = [c, c2]
    memo = {}
    for c, again in ((objectives[0], False), (objectives[0], True), (objectives[1], False)):
        want, want_log = logged_solve(system.with_objective(c))
        sx, known = system.with_objective(c), set(memo)
        with calls_of("_leaving") as ran:
            got, log = logged_solve(sx, memo)
        assert got == want and solve_pivots(log) == solve_pivots(want_log)
        # The tie check pivots as the memo-free one does, unless its answer
        # came from the memo.
        assert log == (solve_pivots(want_log) if sx._tie_key() in known else want_log)
        assert sx._memo_ratio_tests + ran.count(sx) == len(solve_pivots(log))
        if again:
            assert ran == [] and sx._memo_ratio_tests == len(solve_pivots(log))


def basis_bits(sx):
    return sum(1 << v for v in sx.basis)


@settings(max_examples=300, deadline=None)
@given(varied_lps() | degenerate_lps(), st.lists(st.integers(0, 3), max_size=20))
def test_basis_bits_follow_every_pivot(lp, choices):
    # Along a walk off Bland's path (as in the ratio-test walk above) the
    # basis bits are the set of basic variables after every pivot; an
    # instance that with_objective starts from a pivoted one is at the slack
    # basis, and starting it leaves the pivoted one's bits alone.
    sx = dense_simplex(*lp)
    slack = basis_bits(sx)
    assert sx._basis_bits == slack == ((1 << sx.m) - 1) << sx.n
    for choice in choices:
        s = choice % sx.n
        r = sx._leaving(s)
        if r >= 0:
            sx._pivot(r, s)
        assert sx._basis_bits == basis_bits(sx)
        fresh = sx.with_objective([1] * sx.n)
        assert fresh._basis_bits == basis_bits(fresh) == slack
        assert sx._basis_bits == basis_bits(sx)
        assert fresh.solve()
        assert fresh._basis_bits == basis_bits(fresh)


class KeyRecordingMemo(dict):
    """A memo that records every key stored, with its kind (memo_kind)."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, answer):
        self.stored.append((key, memo_kind(key, answer)))
        super().__setitem__(key, answer)


def test_ratio_keys_never_equal_tie_keys(monkeypatch):
    # Every key a decode could store for a ratio test, at each basis along
    # its path and for each nonbasic column, differs from every tie key
    # stored; each key is stored once, with an answer of its own kind.
    pivot = ExactSimplex._pivot
    for code in MEMO_CODES:
        H = decode_code(code)
        system, memo = _record(H).lp, KeyRecordingMemo()
        ratio_keys = set()

        def record(sx):
            if sx._rows is system._rows:  # not the tie check's auxiliary LP
                ratio_keys.update((sx._basis_bits, v) for v in sx.nonbasic)

        def recording(sx, r, s):
            record(sx)
            pivot(sx, r, s)
            record(sx)

        monkeypatch.setattr(ExactSimplex, "_pivot", recording)
        for seed in range(8):
            for gaussian in (False, True):
                sx = system.with_objective(rationalize_llr(seeded_llrs(H, seed, gaussian))[0])
                record(sx)
                sx.solve(memo)
        keys = [key for key, _ in memo.stored]
        assert len(keys) == len(set(keys)) == len(memo)
        tie_keys = {key for key, kind in memo.stored if kind == "tie check"}
        assert tie_keys and not tie_keys & ratio_keys, code
        assert {key for key, kind in memo.stored if kind == "ratio test"} <= ratio_keys


def test_memo_decodes_match_memo_free_solves(empty_record_cache):
    # On a seeded corpus of the five decode codes, BSC errors at two
    # crossovers and Gaussian LLRs, every lp_decode through the compiled
    # system's memo gives the status, optimum and objective of a memo-free
    # solve, and the memo served ratio tests on every code.
    for code in MEMO_CODES:
        H = decode_code(code)
        rng = random.Random(code)
        gammas = [llr_bsc(e, p) for p in (0.05, 0.1) for e in bsc_errors(H.cols, p, 25, seed=7)]
        gammas += [[rng.gauss(1.0, 1.2) for _ in range(H.cols)] for _ in range(10)]
        with calls_of("solve") as solved:
            for gamma in gammas:
                got = lp_decode(H, gamma)
                gr = rationalize(gamma)
                free = _record(H).lp.with_objective(dd.integerize(gr)).solve()
                assert (got.optimum, got.objective) == (free.x, dot(gr, free.x))
                integral = all(v.denominator == 1 for v in free.x)
                assert got.status == ("tie" if not free.unique
                                      else "codeword" if integral else "fractional")
        assert sum(sx._memo_ratio_tests for sx in solved) > 0, code


def test_memo_bound(monkeypatch, empty_record_cache):
    # After every decode the records hold at most CACHE_CAP rows, memo
    # entries and trellis steps, unless the record in use is over it alone,
    # and then its memo is empty.  The cap leaves 3x7 five memo entries, and
    # Steane and [15,11] are over it alone.  The memos hold ratio-test and
    # tie-check answers alike, and the answers stay right when they empty.
    records = empty_record_cache
    monkeypatch.setattr(lpdecode, "CACHE_CAP", _record(decode_code("3x7")).lp.m + 5)
    records.clear()
    sizes, kinds = [], set()
    for code, p in (("3x7", 0.1), ("steane", 0.1), ("15_11", 0.05)):
        H = decode_code(code)
        for e in bsc_errors(H.cols, p, 60, seed=4):
            gamma = llr_bsc(e, p)
            got = lp_decode(H, gamma)
            free = _record(H).lp.with_objective(rationalize_llr(gamma)[0]).solve()
            assert (got.status == "tie") == (not free.unique)
            assert got.optimum == free.x
            memo = records[H].memo
            held = sum(sum(rec.sizes()) for rec in records.values())
            assert held <= lpdecode.CACHE_CAP or (list(records) == [H] and not memo)
            sizes.append(len(memo))
            kinds |= {memo_kind(key, answer) for key, answer in memo.items()}
    assert max(sizes) == 5
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    assert kinds == {"ratio test", "tie check"}


def memo_kind(key, answer):
    """Which answer a memo entry holds: a ratio test's leaving variable
    (-1 for none) under (basis bits, entering variable), or a tie check's
    answer under (basis bits, ~zero-reduced-cost bits)."""
    bits, tail = key
    if tail >= 0:
        assert type(answer) is int and answer >= -1
        return "ratio test"
    assert type(answer) is bool
    return "tie check"


def test_evicted_system_drops_its_memo(monkeypatch, empty_record_cache):
    # An evicted record's memo and trellis go with it, and ml_decode
    # rebuilds the plan with the two eliminations of a first call.
    records, H3, steane = empty_record_cache, decode_code("3x7"), decode_code("steane")
    for e in bsc_errors(7, 0.2, 30, seed=2):
        lp_decode(H3, llr_bsc(e, 0.2))
        ml_decode(H3, llr_bsc(e, 0.2))
    gamma = llr_bsc(BinaryVector(7, 0b11), 0.1)  # not a codeword: the trellis is walked
    want = ml_decode(H3, gamma)
    old = records[H3]
    assert old.memo and "trellis" in vars(old)
    monkeypatch.setattr(lpdecode, "CACHE_CAP", sum(old.sizes()))
    lp_decode(steane, llr_bsc(BinaryVector(14, 1), 0.1))  # over the cap: 3x7 goes
    assert list(records) == [steane]
    assert all(rec.memo is not old.memo for rec in records.values())
    assert _record(H3).memo == {} and "trellis" not in vars(_record(H3))
    calls = []
    echelon = lpdecode.gf2_row_echelon
    monkeypatch.setattr(lpdecode, "gf2_row_echelon", lambda rows: calls.append(rows) or echelon(rows))
    assert ml_decode(H3, gamma) == want
    assert len(calls) == 2


@pytest.mark.parametrize("lp", [
    # Tied at a degenerate vertex: the tie check pivots.
    ([[-1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1, 1], [1, -1, -1]),
    # Zero objective: every column has a zero reduced cost.
    ([[2, 1, 0], [0, 1, 3], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [2, 0, 1, 1, 1], [0, 0, 0]),
])
def test_debug_line_says_memo_hit(lp, caplog):
    # The first solve checks and stores the answer; the second takes it
    # from the memo, with no tie-check pivot and no binding row.
    sx, ties = dense_simplex(*lp), {}
    lines = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="conedec.simplex"):
            res = sx.with_objective(lp[2]).solve(ties)
        (rec,) = caplog.records
        lines.append(rec.getMessage())
        assert not res.unique
    checked, hit = lines
    counts = [int(w) for w in checked.split() if w.isdigit()]
    assert checked.endswith(", tie answer checked") and counts[4] > 0
    # The first solve meets every ratio-test key for the first time, and
    # the second takes the leaving variable of each one from the memo.
    assert counts[2] == 0
    assert hit.endswith(", tie answer from the memo")
    assert [int(w) for w in hit.split() if w.isdigit()] == [
        counts[0], counts[1], counts[1], 0, 0, counts[5]]
