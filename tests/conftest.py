import random

import pytest

from conedec import BinaryMatrix, BinaryVector, build_relaxed_polytope, lpdecode
from conedec.constructions import hamming_matrix
from conedec.errors import BoundExceeded
from conedec.lpdecode import _record
from conedec.qcimprove import add_qc_shifts
from reference_simplex import dense_simplex

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


@pytest.fixture
def empty_record_cache():
    """lpdecode's cache of per-H records, emptied before and after the test."""
    lpdecode._records.clear()
    yield lpdecode._records
    lpdecode._records.clear()


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


def decode_rows(H: BinaryMatrix) -> tuple[tuple, tuple]:
    """(A, b): build_relaxed_polytope's dense rows and bounds, in order,
    without the lower box rows -x_i <= 0, as the decode LP takes them."""
    lower_box = {(tuple(-(t == i) for t in range(H.cols)), 0) for i in range(H.cols)}
    return tuple(zip(*[row for row in build_relaxed_polytope(H).inequalities
                       if row not in lower_box]))


def assert_compiled_matches_dense(H: BinaryMatrix) -> None:
    """The decode LP that lpdecode compiles from H's sparse rows stores the
    rows, rhs and column index that dense_simplex makes of decode_rows(H),
    or both raise one message."""
    try:
        A, b = decode_rows(H)
    except BoundExceeded as exc:
        with pytest.raises(BoundExceeded) as got:
            _record(H).lp
        assert str(got.value) == str(exc)
        return
    compiled, dense = _record(H).lp, dense_simplex(A, b, [0] * H.cols)
    assert (compiled._rows, compiled._b, compiled._cols) == (dense._rows, dense._b, dense._cols)
