from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec.errors import NumericalFailure
from conedec.simplex import solve_min


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
    scaled_A = [a if q is None else [q * x for x in a] for a, q in zip(A, scales)]
    scaled_b = [beta if q is None else q * beta for beta, q in zip(b, scales)]
    assert solve_min(scaled_A, scaled_b, c) == solve_min(A, b, c)
