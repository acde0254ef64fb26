import random

import pytest

from conedec import BinaryMatrix, BinaryVector, build_relaxed_polytope
from conedec.constructions import hamming_matrix
from conedec.errors import BoundExceeded
from conedec.lpdecode import _compiled_system
from conedec.qcimprove import add_qc_shifts
from conedec.simplex import ExactSimplex

# Cyclic 3x7 representation of the [7,4,3] Hamming code; its fundamental
# cone has 42 extreme rays and its relaxed polytope 96 vertices.
HAMMING7 = (
    (1, 0, 1, 1, 1, 0, 0),
    (0, 1, 0, 1, 1, 1, 0),
    (0, 0, 1, 0, 1, 1, 1),
)

# Anchor vectors: MEMBER lies in the cone, NONMEMBER violates row 2 at
# coordinate 4 (dot 3 < 2*2).
MEMBER = (2, 0, 0, 1, 1, 0, 1)
NONMEMBER = (2, 0, 0, 2, 1, 0, 1)


@pytest.fixture(scope="session")
def hamming7() -> BinaryMatrix:
    return hamming_matrix(3, cyclic=True)


@pytest.fixture(scope="session")
def hamming7_full(hamming7) -> BinaryMatrix:
    """All 7 cyclic shifts of the weight-4 row."""
    return add_qc_shifts(hamming7, hamming7.row(0), 1)


def random_matrix(rng: random.Random, rows: int, cols: int) -> BinaryMatrix:
    return BinaryMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def random_vector(rng: random.Random, n: int) -> BinaryVector:
    return BinaryVector(n, rng.getrandbits(n))


def assert_compiled_matches_dense(H: BinaryMatrix, cap: int) -> None:
    """The decode LP that lpdecode compiles from H's sparse rows stores the
    rows, rhs and column index that ExactSimplex.dense makes of
    build_relaxed_polytope's dense rows, or both raise one message."""
    try:
        P = build_relaxed_polytope(H, cap)
    except BoundExceeded as exc:
        with pytest.raises(BoundExceeded) as got:
            _compiled_system(H, cap)
        assert str(got.value) == str(exc)
        return
    A, b = zip(*P.inequalities)
    compiled, dense = _compiled_system(H, cap), ExactSimplex.dense(A, b, [0] * H.cols)
    assert (compiled._rows, compiled._b, compiled._cols) == (dense._rows, dense._b, dense._cols)
