"""build_fundamental_cone and build_relaxed_polytope emit their primitive
integer rows directly.  The reference builders below are the plain loops
normalized through from_rows (Fraction round trip, gcd, dedup); the two
must agree row for row, in order, because Bland's rule follows the order.
"""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedec import (
    BinaryMatrix,
    ConeSystem,
    PolytopeSystem,
    build_fundamental_cone,
    build_relaxed_polytope,
    dd,
)
from conedec.constructions import hagiwara_css_label_matrix, hamming_matrix, steane_matrix
from conedec.errors import BoundExceeded
from conedec.polytope import ROW_WEIGHT_CAP

from conftest import assert_compiled_matches_dense, random_matrix


def reference_cone(H: BinaryMatrix) -> ConeSystem:
    n = H.cols
    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    for j in range(H.rows):
        h = [H.entry(j, i) for i in range(n)]
        for i in H.row_support(j):
            rows.append(tuple(h[t] - (2 if t == i else 0) for t in range(n)))
    return ConeSystem.from_rows(n, rows)


def reference_polytope(H: BinaryMatrix, row_weight_cap: int = ROW_WEIGHT_CAP) -> PolytopeSystem:
    n = H.cols
    rows = []
    for i in range(n):
        rows.append((tuple(-1 if t == i else 0 for t in range(n)), 0))
        rows.append((tuple(1 if t == i else 0 for t in range(n)), 1))
    for j in range(H.rows):
        sup = H.row_support(j)
        if len(sup) > row_weight_cap:
            raise BoundExceeded(
                f"row {j} has weight {len(sup)}, above the expansion cap {row_weight_cap}"
            )
        for size in range(1, len(sup) + 1, 2):
            for S in combinations(sup, size):
                a = [0] * n
                for i in sup:
                    a[i] = -1
                for i in S:
                    a[i] = 1
                rows.append((tuple(a), size - 1))
    return PolytopeSystem.from_rows(n, rows)


def all_int(system) -> bool:
    flat = []
    for row in system.inequalities:
        if isinstance(row[0], tuple):  # polytope row: (coeffs, bound)
            row = (*row[0], row[1])
        flat.extend(row)
    return all(type(x) is int for x in flat)


@st.composite
def matrices(draw):
    """Random H with empty, weight-1 and repeated rows."""
    n = draw(st.integers(1, 7))
    row = st.one_of(
        st.just(0),
        st.integers(0, n - 1).map(lambda i: 1 << i),
        st.integers(0, (1 << n) - 1),
    )
    rows = draw(st.lists(row, min_size=1, max_size=5))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return BinaryMatrix(len(rows), n, rows)


@settings(max_examples=200, deadline=None)
@given(matrices())
@example(BinaryMatrix(1, 1, [1]))
@example(BinaryMatrix(2, 1, [0, 1]))
@example(BinaryMatrix(3, 4, [0, 0, 0]))
@example(BinaryMatrix(3, 5, [0b10110, 0b00100, 0b10110]))
def test_builders_match_reference(H):
    K = build_fundamental_cone(H)
    assert K == reference_cone(H)
    P = build_relaxed_polytope(H)
    assert P == reference_polytope(H)
    assert all_int(K) and all_int(P)
    assert_compiled_matches_dense(H, ROW_WEIGHT_CAP)


@pytest.mark.parametrize(
    "H",
    [hagiwara_css_label_matrix(), steane_matrix(3), hamming_matrix(4)],
    ids=["hagiwara", "steane", "hamming15"],
)
def test_builders_match_reference_on_named_matrices(H):
    assert build_fundamental_cone(H) == reference_cone(H)
    assert build_relaxed_polytope(H) == reference_polytope(H)


def test_builders_skip_the_normalizer(monkeypatch, hamming7):
    def refuse(*args, **kwargs):
        raise AssertionError("builder rows must not need normalizing")

    monkeypatch.setattr(dd, "integerize", refuse)
    monkeypatch.setattr(ConeSystem, "from_rows", refuse)
    monkeypatch.setattr(PolytopeSystem, "from_rows", refuse)
    assert len(build_fundamental_cone(hamming7).inequalities) == 19
    assert len(build_relaxed_polytope(hamming7).inequalities) == 38


def test_row_weight_cap_unchanged():
    rng = random.Random(31)
    raised = 0
    for _ in range(300):
        H = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 9))
        cap = rng.randint(0, 9)
        try:
            expected = reference_polytope(H, cap)
        except BoundExceeded as exc:
            raised += 1
            with pytest.raises(BoundExceeded) as got:
                build_relaxed_polytope(H, cap)
            assert str(got.value) == str(exc)
        else:
            assert build_relaxed_polytope(H, cap) == expected
        assert_compiled_matches_dense(H, cap)
    assert 50 < raised < 250
