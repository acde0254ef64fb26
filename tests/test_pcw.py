import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import (
    BinaryMatrix,
    GenFun,
    Pseudocodeword,
    build_fundamental_cone,
    enumerate_codewords,
    enumerate_pseudocodewords,
    generating_function,
    genfun_product,
    genfun_restrict,
    is_gc_pseudocodeword,
    mat_vec_mod2,
)
from conedec.constructions import steane_matrix
from conedec.errors import BoundExceeded

from conftest import MEMBER, NONMEMBER, random_matrix
from reference_pcw import reference_enumerate_pseudocodewords


def naive_box_enumeration(H, bound):
    """Independent oracle: check every lattice point of the box directly."""
    K = build_fundamental_cone(H)
    out = set()
    for v in itertools.product(range(bound + 1), repeat=H.cols):
        if not any(mat_vec_mod2(H, v)) and K.contains(v):
            out.add(v)
    return out


class TestIsGcPseudocodeword:
    def test_member_anchor(self, hamming7):
        assert is_gc_pseudocodeword(hamming7, MEMBER)

    def test_nonmember_anchor(self, hamming7):
        assert not is_gc_pseudocodeword(hamming7, NONMEMBER)

    def test_zero(self, hamming7):
        assert is_gc_pseudocodeword(hamming7, (0,) * 7)

    def test_parity_violation(self, hamming7):
        # In the cone but odd on row 1: scale the member anchor's first
        # coordinate by 1 to break a single row sum.
        assert not is_gc_pseudocodeword(hamming7, (1, 0, 0, 1, 1, 0, 1))

    def test_certify(self, hamming7):
        p = Pseudocodeword.certify(hamming7, MEMBER)
        assert p.coords == MEMBER
        with pytest.raises(ValueError):
            Pseudocodeword.certify(hamming7, NONMEMBER)

    @pytest.mark.parametrize("head", [2.5, Fraction(5, 2)])
    def test_certify_rejects_non_integers(self, hamming7, head):
        # int() would truncate the head to 2 and certify MEMBER.
        with pytest.raises(ValueError):
            Pseudocodeword.certify(hamming7, (head,) + MEMBER[1:])

    def test_certify_converts_integral_values(self, hamming7):
        p = Pseudocodeword.certify(hamming7, (2.0, Fraction(0)) + MEMBER[2:])
        assert p.coords == MEMBER
        assert all(type(x) is int for x in p.coords)


@st.composite
def walk_matrices(draw):
    """Small H with weight-0 and weight-1 rows, repeated rows and all-zero
    columns."""
    n = draw(st.integers(1, 6))
    row = st.one_of(
        st.just(0),
        st.integers(0, n - 1).map(lambda i: 1 << i),
        st.integers(0, (1 << n) - 1),
    )
    rows = draw(st.lists(row, min_size=1, max_size=4))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    zero_cols = draw(st.integers(0, (1 << n) - 1)) if draw(st.booleans()) else 0
    return BinaryMatrix(len(rows), n, [b & ~zero_cols for b in rows])


class TestEnumeratePseudocodewords:
    @settings(max_examples=300, deadline=None)
    @given(walk_matrices(), st.integers(0, 3))
    def test_matches_reference_walk(self, H, B):
        # Same pseudocodewords in the same order as the recomputing walk.
        assert enumerate_pseudocodewords(H, B) == reference_enumerate_pseudocodewords(H, B)

    def test_pinned_counts(self, hamming7_full):
        assert len(enumerate_pseudocodewords(steane_matrix(3), 1)) == 256
        assert len(enumerate_pseudocodewords(hamming7_full, 3)) == 1180

    def test_lexicographic_order(self, hamming7):
        ps = [p.coords for p in enumerate_pseudocodewords(hamming7, 2)]
        assert ps == sorted(ps)

    def test_two_coordinate_check(self):
        H = BinaryMatrix.from_rows([[1, 1]])
        got = {p.coords for p in enumerate_pseudocodewords(H, 2)}
        assert got == {(0, 0), (1, 1), (2, 2)}

    def test_bound_zero(self, hamming7):
        assert [p.coords for p in enumerate_pseudocodewords(hamming7, 0)] == [(0,) * 7]

    def test_bound_zero_any_width(self):
        # The walk recurses once per column; at bound 0 the box is the zero
        # vector alone, answered without it at any width.
        H = BinaryMatrix(1, 1200, [(1 << 1200) - 1])
        assert enumerate_pseudocodewords(H, 0) == [Pseudocodeword((0,) * 1200)]

    def test_hamming_bound_one_is_codewords(self, hamming7):
        got = {p.coords for p in enumerate_pseudocodewords(hamming7, 1)}
        assert got == {c.to_tuple() for c in enumerate_codewords(hamming7)}
        assert got == naive_box_enumeration(hamming7, 1)

    def test_agrees_with_naive_oracle(self):
        rng = random.Random(527)
        for _ in range(30):
            H = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 6))
            B = rng.randint(1, 3)
            got = {p.coords for p in enumerate_pseudocodewords(H, B)}
            assert got == naive_box_enumeration(H, B)

    def test_budget(self):
        # 4^13 = 2^26 box points, above BOX_BUDGET = 2^24: refused before the walk
        H = BinaryMatrix(1, 13, [3])
        with pytest.raises(BoundExceeded):
            enumerate_pseudocodewords(H, 3)
        with pytest.raises(BoundExceeded):
            generating_function(H, 3)

    def test_additive_closure_inside_box(self, hamming7):
        ps = [p.coords for p in enumerate_pseudocodewords(hamming7, 1)]
        for a in ps[:10]:
            for b in ps[:10]:
                s = tuple(x + y for x, y in zip(a, b))
                assert is_gc_pseudocodeword(hamming7, s)

    def test_codewords_are_pseudocodewords(self):
        rng = random.Random(61)
        for _ in range(10):
            H = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
            for c in enumerate_codewords(H):
                assert is_gc_pseudocodeword(H, c.to_tuple())


class TestGeneratingFunction:
    def test_two_coordinate_check(self):
        f = generating_function(BinaryMatrix.from_rows([[1, 1]]), 2)
        assert f.terms == {(0, 0): 1, (1, 1): 1, (2, 2): 1}

    def test_bound_zero_constant(self, hamming7):
        f = generating_function(hamming7, 0)
        assert f.terms == {(0,) * 7: 1}

    def test_hamming_bound_one(self, hamming7):
        f = generating_function(hamming7, 1)
        assert len(f) == 16
        assert all(c == 1 for c in f.terms.values())


class TestGenfunProduct:
    def test_square_of_hamming(self, hamming7):
        f = generating_function(hamming7, 1)
        prod = genfun_product([f, f])
        assert len(prod) == 256
        assert prod.blocks == (7, 7)

    def test_constant_identity(self, hamming7):
        f = generating_function(hamming7, 1)
        one = GenFun(1, 1, {(0,): 1})
        prod = genfun_product([f, one])
        assert len(prod) == len(f)
        assert {e[:7] for e in prod.terms} == set(f.terms)

    def test_block_diagonal_equals_product(self, hamming7):
        direct = generating_function(steane_matrix(3), 1)
        f = generating_function(hamming7, 1)
        assert direct == genfun_product([f, f])

    def test_equal_genfuns_hash_equal(self, hamming7):
        # The product carries blocks (7, 7); equality and hash ignore them.
        f = generating_function(hamming7, 1)
        g = genfun_product([f, f])
        s = generating_function(steane_matrix(3), 1)
        assert g == s and hash(g) == hash(s)
        assert len({g, s}) == 1

    def test_bound_mismatch(self, hamming7):
        with pytest.raises(ValueError):
            genfun_product(
                [generating_function(hamming7, 1), generating_function(hamming7, 2)]
            )

    def test_product_sets_match_cartesian(self):
        # Block-diagonal enumeration equals the cartesian product of the
        # factor enumerations, exponent for exponent.
        from conedec.constructions import direct_sum

        rng = random.Random(71)
        for _ in range(8):
            H1 = random_matrix(rng, rng.randint(1, 2), rng.randint(2, 4))
            H2 = random_matrix(rng, rng.randint(1, 2), rng.randint(2, 4))
            B = rng.randint(1, 2)
            whole = {p.coords for p in enumerate_pseudocodewords(direct_sum(H1, H2), B)}
            parts = {
                a.coords + b.coords
                for a in enumerate_pseudocodewords(H1, B)
                for b in enumerate_pseudocodewords(H2, B)
            }
            assert whole == parts


class TestGenfunRestrict:
    def test_block_row_restriction(self, hamming7):
        # Side-by-side copies: zeroing one block leaves the other factor.
        doubled = BinaryMatrix(
            3, 14, [b | (b << 7) for b in hamming7.row_bits]
        )
        f = generating_function(doubled, 1).with_blocks((7, 7))
        fH = generating_function(hamming7, 1)
        assert genfun_restrict(f, 0) == fH
        assert genfun_restrict(f, 1) == fH

    def test_restrict_constant(self):
        one = GenFun(4, 1, {(0, 0, 0, 0): 1}, blocks=(2, 2))
        got = genfun_restrict(one, 0)
        assert got.terms == {(0, 0): 1}

    def test_pure_other_block_terms_drop(self):
        f = GenFun(4, 1, {(0, 0, 0, 0): 1, (0, 0, 1, 1): 1}, blocks=(2, 2))
        assert genfun_restrict(f, 0).terms == {(0, 0): 1}

    def test_missing_metadata(self, hamming7):
        with pytest.raises(ValueError):
            genfun_restrict(generating_function(hamming7, 1), 0)

    def test_block_row_concatenation_is_subset(self):
        # Concatenated factor pseudocodewords always land in the block-row
        # matrix's set; the reverse containment is not asserted.
        rng = random.Random(83)
        for _ in range(8):
            r = rng.randint(1, 2)
            H1 = random_matrix(rng, r, rng.randint(2, 4))
            H2 = random_matrix(rng, r, rng.randint(2, 4))
            joined = BinaryMatrix(
                r,
                H1.cols + H2.cols,
                [a | (b << H1.cols) for a, b in zip(H1.row_bits, H2.row_bits)],
            )
            B = rng.randint(1, 2)
            whole = {p.coords for p in enumerate_pseudocodewords(joined, B)}
            parts = {
                a.coords + b.coords
                for a in enumerate_pseudocodewords(H1, B)
                for b in enumerate_pseudocodewords(H2, B)
            }
            assert parts <= whole
