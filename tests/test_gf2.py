import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import (
    BinaryMatrix,
    BinaryVector,
    cyclic_shift,
    enumerate_codewords,
    enumerate_dual_words,
    format_alist,
    format_dense,
    is_quasi_cyclic,
    mat_vec_mod2,
    parse_alist,
    parse_dense,
)
from conedec.errors import BoundExceeded
from conedec.gf2 import gf2_rank, row_space_contains

from conftest import MEMBER, random_matrix


def identity(n):
    return BinaryMatrix(n, n, [1 << i for i in range(n)])


class TestSupport:
    def test_matches_bit_scan(self):
        rng = random.Random(67)
        cases = [
            BinaryVector(1, 0),
            BinaryVector(1, 1),
            BinaryVector(9, 0),
            BinaryVector(9, 1 << 8),
            BinaryVector(200, 1 << 199),
            BinaryVector(200, (1 << 200) - 1),
        ]
        cases += [BinaryVector(200, rng.getrandbits(200)) for _ in range(20)]
        cases += [BinaryVector(n, rng.getrandbits(n)) for n in rng.choices(range(1, 70), k=200)]
        for v in cases:
            assert v.support() == tuple(i for i in range(v.n) if v[i])


class TestMatVecMod2:
    def test_membership_anchor(self, hamming7):
        # Row sums over the integers are 4, 2, 2: all even.
        assert mat_vec_mod2(hamming7, MEMBER) == BinaryVector.from_bits([0, 0, 0])

    def test_zero_vector(self, hamming7):
        assert mat_vec_mod2(hamming7, [0] * 7).bits == 0

    def test_entries_above_one(self):
        H = BinaryMatrix.from_rows([[1, 1, 1]])
        assert mat_vec_mod2(H, (1, 2, 1)).bits == 0  # integer sum 4
        assert mat_vec_mod2(H, (1, 2, 2)).bits == 1  # integer sum 5

    def test_dimension_mismatch(self, hamming7):
        with pytest.raises(ValueError):
            mat_vec_mod2(hamming7, [0] * 6)

    def test_additivity_mod2(self):
        rng = random.Random(101)
        for _ in range(50):
            H = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
            v = [rng.randint(0, 5) for _ in range(H.cols)]
            w = [rng.randint(0, 5) for _ in range(H.cols)]
            vw = [a + b for a, b in zip(v, w)]
            assert mat_vec_mod2(H, vw) == mat_vec_mod2(H, v) ^ mat_vec_mod2(H, w)


class TestEnumerateCodewords:
    def test_hamming_count(self, hamming7):
        assert gf2_rank(hamming7) == 3
        words = enumerate_codewords(hamming7)
        assert len(words) == 16  # 2^(7-3)

    def test_identity_gives_zero(self):
        words = enumerate_codewords(identity(5))
        assert words == [BinaryVector(5, 0)]

    def test_single_check_exhaustive(self):
        H = BinaryMatrix.from_rows([[1, 1, 1]])
        got = {w.to01() for w in enumerate_codewords(H)}
        brute = {
            "".join(map(str, v))
            for v in itertools.product((0, 1), repeat=3)
            if sum(v) % 2 == 0
        }
        assert got == brute == {"000", "110", "101", "011"}

    def test_closure_and_size(self):
        rng = random.Random(7)
        for _ in range(20):
            H = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 8))
            words = enumerate_codewords(H)
            assert len(words) == 1 << (H.cols - gf2_rank(H))
            ws = set(words)
            assert BinaryVector(H.cols, 0) in ws
            for a in words[:8]:
                for b in words[:8]:
                    assert a ^ b in ws

    def test_cap(self):
        H = BinaryMatrix(1, 30, [1])
        with pytest.raises(BoundExceeded):
            enumerate_codewords(H, limit=24)


class TestDualWords:
    def test_hamming_weight4_words(self, hamming7):
        words = enumerate_dual_words(hamming7, 4)
        # The row span has 8 elements; the 7 nonzero ones are exactly the
        # cyclic shifts of row 1 and all have weight 4.
        assert len(words) == 7
        shifts = {cyclic_shift(hamming7.row(0), s) for s in range(7)}
        assert {w for w, _ in words} == shifts
        assert all(w.weight() == 4 for w, _ in words)
        assert sum(1 for _, is_row in words if is_row) == 3

    def test_max_weight_zero(self, hamming7):
        assert enumerate_dual_words(hamming7, 0) == []

    def test_single_row(self):
        H = BinaryMatrix.from_rows([[1, 1]])
        assert enumerate_dual_words(H, 2) == [(BinaryVector.from_bits([1, 1]), True)]

    def test_row_space_membership(self, hamming7):
        for w, _ in enumerate_dual_words(hamming7, 7):
            assert row_space_contains(hamming7, w)
        assert not row_space_contains(hamming7, BinaryVector.from_string("1000000"))


class TestCyclicShift:
    def test_row_shift(self):
        v = BinaryVector.from_bits((1, 0, 1, 1, 1, 0, 0))
        assert cyclic_shift(v, 1).to_tuple() == (0, 1, 0, 1, 1, 1, 0)

    def test_identity_shifts(self):
        v = BinaryVector.from_string("1011100")
        assert cyclic_shift(v, 0) == v
        assert cyclic_shift(v, len(v)) == v

    def test_rational_sequence(self):
        assert cyclic_shift((1, 2, 3), 1) == (3, 1, 2)

    def test_composition_and_weight(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 12)
            v = BinaryVector(n, rng.getrandbits(n))
            a, b = rng.randint(0, 20), rng.randint(0, 20)
            assert cyclic_shift(cyclic_shift(v, a), b) == cyclic_shift(v, a + b)
            assert cyclic_shift(v, a).weight() == v.weight()


class TestQuasiCyclic:
    def test_full_shift_closure(self, hamming7_full):
        assert is_quasi_cyclic(hamming7_full, 1)

    def test_three_row_not_closed(self, hamming7):
        # The shift of row 3 is not among the rows.
        assert not is_quasi_cyclic(hamming7, 1)

    def test_full_length_shift(self, hamming7):
        assert is_quasi_cyclic(hamming7, hamming7.cols)

    def test_multiples(self, hamming7_full):
        for k in range(1, 5):
            assert is_quasi_cyclic(hamming7_full, k * 1)


class TestTextFormats:
    def test_dense_round_trip(self, hamming7):
        text = format_dense(hamming7)
        assert parse_dense(text) == hamming7
        assert format_dense(parse_dense(text)) == text

    def test_alist_round_trip(self, hamming7):
        text = format_alist(hamming7)
        assert parse_alist(text) == hamming7
        assert format_alist(parse_alist(text)) == text

    def test_alist_header(self, hamming7):
        lines = format_alist(hamming7).splitlines()
        assert lines[0] == "7 3"  # n m
        assert lines[1] == "3 4"  # max column degree, max row degree

    def test_alist_zero_padding_ignored(self):
        # Same matrix with classic zero padding in the index lists.
        padded = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"
        H = parse_alist(padded)
        assert H.to_lists() == [[1, 1, 0], [0, 1, 1]]

    def test_random_round_trips(self):
        rng = random.Random(23)
        for _ in range(25):
            H = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 9))
            assert parse_dense(format_dense(H)) == H
            assert parse_alist(format_alist(H)) == H

    def test_dense_parse_errors(self):
        with pytest.raises(ValueError):
            parse_dense("")
        with pytest.raises(ValueError):
            parse_dense("2 2\n1 0\n")
        with pytest.raises(ValueError):
            parse_dense("1 3\n1 0\n")

    # [[1, 1], [0, 1]]: column degrees 1 2, row degrees 2 1, max degrees 2 2.
    ALIST_2X2 = "2 2\n2 2\n1 2\n2 1\n1 0\n1 2\n1 2\n2 0\n"

    def test_alist_2x2_parses(self):
        assert parse_alist(self.ALIST_2X2).to_lists() == [[1, 1], [0, 1]]

    def test_alist_rejects_repeated_column_index(self):
        # Column 1 lists row 1 twice under degree 2; the rows agree with
        # the weight-1 column that repeat would build.
        text = "2 2\n2 2\n1 2\n2 0\n1 0\n1 1\n1 2\n0 0\n"
        with pytest.raises(ValueError, match="repeated index"):
            parse_alist(text)

    def test_alist_rejects_row_degree_mismatch(self):
        # Rows of weight 2 and 1 declared as degrees 5 and 7.
        text = self.ALIST_2X2.replace("\n2 1\n", "\n5 7\n").replace("2 2\n1 2", "2 7\n1 2")
        with pytest.raises(ValueError, match="row 0: degree mismatch"):
            parse_alist(text)

    @pytest.mark.parametrize("line", ["9 9", "2 1", "2", "2 2 2", "a b"])
    def test_alist_rejects_bad_max_degrees(self, line):
        lines = self.ALIST_2X2.splitlines()
        lines[1] = line
        with pytest.raises(ValueError):
            parse_alist("\n".join(lines))


_TOKENS = st.sampled_from(["0", "1", "2", "3", "-1", "7", "x", "1.5", "", "99999"])


@st.composite
def mutated_matrix_text(draw):
    """format_alist or format_dense text of a random H, with one to three
    line or token edits."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    H = BinaryMatrix(m, n, [draw(st.integers(0, (1 << n) - 1)) for _ in range(m)])
    fmt = draw(st.sampled_from(["alist", "dense"]))
    lines = [ln.split() for ln in (format_alist(H) if fmt == "alist" else format_dense(H)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, len(lines) - 1))
        k = draw(st.integers(0, max(len(lines[j]) - 1, 0)))
        edit = draw(st.sampled_from(["token", "drop", "insert", "line-drop", "line-dup", "swap"]))
        if edit == "token" and lines[j]:
            lines[j][k] = draw(_TOKENS)
        elif edit == "drop" and lines[j]:
            del lines[j][k]
        elif edit == "insert":
            lines[j].insert(k, draw(_TOKENS))
        elif edit == "line-drop" and len(lines) > 1:
            del lines[j]
        elif edit == "line-dup":
            lines.insert(j, list(lines[j]))
        elif edit == "swap":
            i = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return fmt, "\n".join(" ".join(ln) for ln in lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_matrix_text())
def test_parsers_on_mutated_text(case):
    """The parsers raise only ValueError, and alist text that parses
    declares the parsed matrix's header, max degrees and degree lists."""
    fmt, text = case
    try:
        H = (parse_alist if fmt == "alist" else parse_dense)(text)
    except ValueError:
        return
    if fmt == "alist":
        col_deg = [sum(H.entry(j, i) for j in range(H.rows)) for i in range(H.cols)]
        row_deg = [len(H.row_support(j)) for j in range(H.rows)]
        declared = [[int(x) for x in ln.split()] for ln in text.splitlines() if ln.strip()]
        assert declared[:4] == [
            [H.cols, H.rows], [max(col_deg), max(row_deg)], col_deg, row_deg
        ]
