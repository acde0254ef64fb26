import logging
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec.errors import NumericalFailure
from conedec.lpdecode import _compiled_system
from conedec.polytope import ROW_WEIGHT_CAP
from conedec.simplex import MAX_PIVOTS, ExactSimplex
from reference_simplex import (
    CondensedSimplex,
    FullTableauSimplex,
    all_rows_optimum_is_unique,
    both_pivot_logs,
    solve_pivots,
)


def test_box_corner():
    res = ExactSimplex.dense([[1, 0], [0, 1]], [1, 1], [-1, -1]).solve()
    assert res.x == (Fraction(1), Fraction(1))
    assert res.objective == -2
    assert res.unique


def test_zero_objective_segment_ties():
    res = ExactSimplex.dense([[1]], [1], [0]).solve()
    assert res.objective == 0 and type(res.objective) is Fraction
    assert not res.unique


def test_degenerate_duplicate_rows_unique():
    res = ExactSimplex.dense([[1], [1]], [1, 1], [-1]).solve()
    assert res.x == (Fraction(1),)
    assert res.unique


def test_fractional_data():
    # min -x1 - x2 with x1 + 2 x2 <= 2, 2 x1 + x2 <= 2: optimum (2/3, 2/3).
    res = ExactSimplex.dense([[1, 2], [2, 1]], [2, 2], [-1, -1]).solve()
    assert res.x == (Fraction(2, 3), Fraction(2, 3))
    assert res.objective == Fraction(-4, 3)
    assert res.unique


def test_alternate_optima_detected():
    # Objective parallel to a facet: the whole edge x1 + x2 = 1 is optimal.
    res = ExactSimplex.dense([[1, 1]], [1], [-1, -1]).solve()
    assert res.objective == -1
    assert not res.unique


def test_degenerate_vertex_still_unique():
    # Three facets through the optimum (1, 1) in 2D: degenerate but unique.
    res = ExactSimplex.dense([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [-1, -2]).solve()
    assert res.x == (Fraction(1), Fraction(1))
    assert res.unique


def test_rational_coefficients():
    res = ExactSimplex.dense(
        [[Fraction(1, 2), Fraction(1, 3)]], [Fraction(5, 6)], [Fraction(-1), 0]
    ).solve()
    assert res.x[0] == Fraction(5, 3)
    assert res.unique


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        ExactSimplex.dense([[1]], [-1], [1]).solve()


def test_unbounded_raises():
    with pytest.raises(NumericalFailure):
        ExactSimplex.dense([[-1]], [0], [-1]).solve()


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
    scaled = ExactSimplex.dense(*scale_rows(A, b, scales), c)
    assert scaled.solve() == ExactSimplex.dense(A, b, c).solve()


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
    # by design (all rows against degenerate rows); got == want compares
    # their answers.
    A, b, c = lp
    with both_pivot_logs() as (core, condensed, full):
        got = ExactSimplex.dense(A, b, c).solve()
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
        got = ExactSimplex.dense(A, b, c).solve()
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
    sx, ref = ExactSimplex.dense(*lp), CondensedSimplex(*lp)
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


@settings(max_examples=300, deadline=None)
@given(varied_lps())
def test_tie_check_rows_equal_condensed_degenerate_rows(lp):
    # The auxiliary LP takes the condensed tableau's degenerate rows over
    # the zero-reduced-cost columns, in row order, as sparse rows.
    sx, ref = ExactSimplex.dense(*lp), CondensedSimplex(*lp)
    assert sx._run(MAX_PIVOTS) and ref._run(MAX_PIVOTS)
    taken = []
    store = ExactSimplex._store

    def recording_store(self, n, rows, b):
        taken.append((n, list(rows), list(b)))
        store(self, n, rows, b)

    ExactSimplex._store = recording_store
    try:
        sx._optimum_is_unique()
    finally:
        ExactSimplex._store = store
    T = ref.T
    zero_cols = sorted(
        (j for j in range(ref.n) if T[-1][j] == 0), key=ref.nonbasic.__getitem__
    )
    if not zero_cols:
        assert taken == []
        return
    want = [[row[j] for j in zero_cols] for row in T[:-1] if row[-1] == 0]
    sparse = [tuple((t, x) for t, x in enumerate(row) if x) for row in want]
    assert taken == [(len(zero_cols), sparse, [0] * len(want))]


@settings(max_examples=500, deadline=None)
@given(varied_lps())
def test_degenerate_row_tie_check_matches_all_rows_check(lp):
    # The condensed oracle solved on the same LP ends at the same optimal
    # basis; the all-rows check runs on its tableau.
    sx, ref = ExactSimplex.dense(*lp), CondensedSimplex(*lp)
    res = sx.solve()
    ref.solve()
    assert (sx.basis, sx.nonbasic) == (ref.basis, ref.nonbasic)
    assert res.unique == all_rows_optimum_is_unique(ref)


def stored_rows(sx):
    """The constraint data an instance shares with with_objective."""
    return sx._rows, sx._b, sx._cols


@settings(max_examples=200, deadline=None)
@given(varied_lps(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_with_objective_never_changes_the_shared_rows(lp, c2):
    # Every instance that with_objective starts shares the template's
    # sparse rows and column index, a pivoted instance's too; no pivot may
    # change them.  Entries other than 0 and 1 make a pivot's d differ from
    # the pivot element.
    A, b, c = lp
    c2 = c2[: len(c)]
    template = ExactSimplex.dense(A, b, [0] * len(c))
    first = template.with_objective(c)
    assert first.solve() == ExactSimplex.dense(A, b, c).solve()
    assert first.with_objective(c2).solve() == ExactSimplex.dense(A, b, c2).solve()
    assert template.with_objective(c2).solve() == ExactSimplex.dense(A, b, c2).solve()
    assert all(x is y for x, y in zip(stored_rows(first), stored_rows(template)))
    assert stored_rows(template) == stored_rows(ExactSimplex.dense(A, b, [0] * len(c)))
    with pytest.raises(ValueError):
        template.with_objective([*c, 0])


def test_condensed_tableau_shape():
    A, b, c = [[1, 2], [3, 4], [5, 6]], [1, 1, 1], [-1, -1]
    ref = CondensedSimplex(A, b, c)
    assert len(ref.T) == 4 and all(len(row) == 3 for row in ref.T)
    sx = ExactSimplex.dense(A, b, c)
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
    dense = ExactSimplex.dense([[1, 2, 1, -1, 2], [3, 0, 3, 3, 0]], [1, 1], [0] * 5)
    for sx in (dense, _compiled_system(hamming7, ROW_WEIGHT_CAP)):
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
    ],
)
def test_debug_line_counts_match_pivot_log(lp, caplog):
    with both_pivot_logs() as (core, _, _):
        with caplog.at_level(logging.DEBUG, logger="conedec.simplex"):
            sx = ExactSimplex.dense(*lp)
            sx.solve()
    (rec,) = caplog.records
    assert rec.levelno == logging.DEBUG and rec.name == "conedec.simplex"
    rows, solve, tie, degenerate, basic = (
        int(w) for w in rec.getMessage().split() if w.isdigit()
    )
    assert rows == len(lp[0])
    assert solve == len(solve_pivots(core))
    assert tie == len(core) - solve
    assert basic == len(sx.core) == sum(v < sx.n for v in sx.basis)
    # The oracle's tableau at the same basis: the degenerate rows the tie
    # check took, none when no reduced cost is zero.
    ref = CondensedSimplex(*lp)
    ref.solve()
    T = ref.T
    if 0 in T[-1][:-1]:
        assert degenerate == sum(row[-1] == 0 for row in T[:-1])
    else:
        assert degenerate == 0
