from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec.errors import NumericalFailure
from conedec.simplex import ExactSimplex, solve_min
from reference_simplex import (
    FullTableauSimplex,
    all_rows_optimum_is_unique,
    both_pivot_logs,
    solve_pivots,
)


def test_box_corner():
    res = solve_min([[1, 0], [0, 1]], [1, 1], [-1, -1])
    assert res.x == (Fraction(1), Fraction(1))
    assert res.objective == -2
    assert res.unique


def test_zero_objective_segment_ties():
    res = solve_min([[1]], [1], [0])
    assert res.objective == 0
    assert not res.unique


def test_degenerate_duplicate_rows_unique():
    res = solve_min([[1], [1]], [1, 1], [-1])
    assert res.x == (Fraction(1),)
    assert res.unique


def test_fractional_data():
    # min -x1 - x2 with x1 + 2 x2 <= 2, 2 x1 + x2 <= 2: optimum (2/3, 2/3).
    res = solve_min([[1, 2], [2, 1]], [2, 2], [-1, -1])
    assert res.x == (Fraction(2, 3), Fraction(2, 3))
    assert res.objective == Fraction(-4, 3)
    assert res.unique


def test_alternate_optima_detected():
    # Objective parallel to a facet: the whole edge x1 + x2 = 1 is optimal.
    res = solve_min([[1, 1]], [1], [-1, -1])
    assert res.objective == -1
    assert not res.unique


def test_degenerate_vertex_still_unique():
    # Three facets through the optimum (1, 1) in 2D: degenerate but unique.
    res = solve_min([[1, 0], [0, 1], [1, 1]], [1, 1, 2], [-1, -2])
    assert res.x == (Fraction(1), Fraction(1))
    assert res.unique


def test_rational_coefficients():
    res = solve_min(
        [[Fraction(1, 2), Fraction(1, 3)]], [Fraction(5, 6)], [Fraction(-1), 0]
    )
    assert res.x[0] == Fraction(5, 3)
    assert res.unique


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_min([[1]], [-1], [1])


def test_unbounded_raises():
    with pytest.raises(NumericalFailure):
        solve_min([[-1]], [0], [-1])


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
    # An all-int system skips the Fraction round trip; one with a scaled
    # Fraction row takes it.  Scaling a row by a positive factor changes
    # neither the region nor Bland's pivot path, so results must be equal.
    A, b, c, scales = lp
    assert solve_min(*scale_rows(A, b, scales), c) == solve_min(A, b, c)


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
    # The condensed tableau must make the same pivots as the full one in the
    # main solve.  The tie checks pivot differently by design (degenerate
    # rows only against all rows); got == want compares their answers.
    A, b, c = lp
    with both_pivot_logs() as (condensed, full):
        got = ExactSimplex(A, b, c).solve()
        want = FullTableauSimplex(A, b, c).solve()
    assert got == want
    assert solve_pivots(condensed) == solve_pivots(full)


def test_condensed_tableau_covers_both_phases():
    # An LP whose tie check still pivots: the unit cube cut by
    # -x1 + x2 + x3 <= 1, min x1 - x2 - x3.  The optimum (0, 1, 0) is a
    # degenerate vertex (x2 <= 1 is tight as well), and the optimal face
    # also holds (0, 0, 1) and (1, 1, 1).
    A = [[-1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    b, c = [1, 1, 1, 1], [1, -1, -1]
    with both_pivot_logs() as (condensed, full):
        got = ExactSimplex(A, b, c).solve()
        want = FullTableauSimplex(A, b, c).solve()
    assert got == want and not got.unique
    assert got.x == (0, 1, 0)
    assert solve_pivots(condensed) == solve_pivots(full)
    assert {phase for phase, _, _ in condensed} == {"solve", "tie"}


@settings(max_examples=500, deadline=None)
@given(varied_lps())
def test_degenerate_row_tie_check_matches_all_rows_check(lp):
    sx = ExactSimplex(*lp)
    res = sx.solve()
    assert res.unique == all_rows_optimum_is_unique(sx)


@settings(max_examples=200, deadline=None)
@given(varied_lps(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_with_objective_never_changes_the_shared_rows(lp, c2):
    # Every instance that with_objective starts shares the template's
    # constraint rows, a pivoted instance's too; no pivot may write into
    # them.  Entries other than 0 and 1 make a pivot's d differ from the
    # pivot element, so a write would show.
    A, b, c = lp
    c2 = c2[: len(c)]
    template = ExactSimplex(A, b, [0] * len(c))
    first = template.with_objective(c)
    assert first.solve() == solve_min(A, b, c)
    assert first.with_objective(c2).solve() == solve_min(A, b, c2)
    assert template.with_objective(c2).solve() == solve_min(A, b, c2)
    assert template.T == ExactSimplex(A, b, [0] * len(c)).T
    with pytest.raises(ValueError):
        template.with_objective([*c, 0])


def test_condensed_tableau_shape():
    sx = ExactSimplex([[1, 2], [3, 4], [5, 6]], [1, 1, 1], [-1, -1])
    assert len(sx.T) == 4 and all(len(row) == 3 for row in sx.T)
    assert sx.basis == [2, 3, 4] and sx.nonbasic == [0, 1]
