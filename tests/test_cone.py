import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedec import (
    BinaryMatrix,
    BinaryVector,
    augment_column_lift,
    blockrow_embed,
    build_fundamental_cone,
    enumerate_codewords,
    extreme_rays,
    in_cone,
    is_gc_pseudocodeword,
    mat_vec_mod2,
    repeated_block_membership,
)
from conedec import cone, dd
from conedec.constructions import direct_sum, hagiwara_css_label_matrix, label_matrix
from conedec.errors import BoundExceeded
from conedec.gf2 import block_matrix, gf2_nullspace_basis

from conftest import HAMMING7, MEMBER, NONMEMBER, random_matrix
from reference_cone import (
    intersect_cones,
    product_cone,
    reference_augment_column_lift,
    reference_blockrow_embed,
    reference_cone_contains,
    reference_repeated_block_membership,
    rows_of,
)


def direct_cone_check(H: BinaryMatrix, v) -> bool:
    """Membership straight from the defining inequalities, bypassing
    ConeSystem entirely."""
    v = [Fraction(x) for x in v]
    if any(x < 0 for x in v):
        return False
    for j in range(H.rows):
        row_dot = sum(v[i] for i in H.row_support(j))
        for i in range(H.cols):
            if H.entry(j, i) and row_dot < 2 * v[i]:
                return False
    return True


def random_rational_vector(rng, n, allow_negative=False):
    lo = -3 if allow_negative else 0
    return tuple(
        Fraction(rng.randint(lo, 6), rng.randint(1, 4)) for _ in range(n)
    )


class TestBuildFundamentalCone:
    def test_hamming_inequality_count(self, hamming7):
        K = build_fundamental_cone(hamming7)
        # 3 rows of weight 4 contribute 12 inequalities, plus 7 nonnegativity.
        assert K.dim == 7
        assert len(K.inequalities) == 12 + 7

    def test_two_coordinate_pencil(self):
        K = build_fundamental_cone(BinaryMatrix.from_rows([[1, 1]]))
        assert K.contains((1, 1))
        assert K.contains((Fraction(3, 2), Fraction(3, 2)))
        assert not K.contains((1, 2))
        assert not K.contains((2, 1))

    def test_zero_matrix_is_orthant(self):
        K = build_fundamental_cone(BinaryMatrix(1, 4, [0]))
        assert len(K.inequalities) == 4
        assert K.contains((5, 0, 1, 7))
        assert not K.contains((1, -1, 0, 0))


class TestConeContains:
    def test_member_anchor(self, hamming7):
        assert build_fundamental_cone(hamming7).contains(MEMBER)

    def test_nonmember_anchor(self, hamming7):
        # Row 2 dots to 3 against the doubled coordinate demand of 4.
        assert not build_fundamental_cone(hamming7).contains(NONMEMBER)

    def test_apex(self, hamming7):
        assert build_fundamental_cone(hamming7).contains((0,) * 7)

    def test_dimension_mismatch(self, hamming7):
        with pytest.raises(ValueError):
            build_fundamental_cone(hamming7).contains((0,) * 6)

    def test_in_cone_length_mismatch(self, hamming7):
        with pytest.raises(ValueError):
            in_cone(hamming7, (0,) * 6)
        with pytest.raises(ValueError):
            in_cone(hamming7, BinaryVector(8, 0))

    def test_in_cone_degenerate_rows(self):
        # Row 0 is empty and imposes nothing; row 1 has weight 1 and forces
        # v_1 = 0.
        H = BinaryMatrix(2, 3, [0, 0b010])
        assert in_cone(H, (5, 0, 1))
        assert not in_cone(H, (5, Fraction(1, 3), 1))

    def test_matches_direct_check_on_random_input(self):
        rng = random.Random(42)
        for _ in range(200):
            H = random_matrix(rng, rng.randint(1, 5), rng.randint(2, 10))
            K = build_fundamental_cone(H)
            v = random_rational_vector(rng, H.cols, allow_negative=True)
            assert K.contains(v) == direct_cone_check(H, v)
            assert in_cone(H, v) == direct_cone_check(H, v)

    def test_every_codeword_is_a_member(self):
        rng = random.Random(13)
        for _ in range(20):
            H = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 8))
            K = build_fundamental_cone(H)
            for c in enumerate_codewords(H):
                assert K.contains(c.to_tuple())


@st.composite
def matrices(draw, n):
    """Random H with n columns and empty, weight-1 and repeated rows."""
    row = st.one_of(
        st.just(0),
        st.integers(0, n - 1).map(lambda i: 1 << i),
        st.integers(0, (1 << n) - 1),
    )
    rows = draw(st.lists(row, min_size=1, max_size=5))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return BinaryMatrix(len(rows), n, rows)


@st.composite
def vectors(draw, n):
    """A length-n vector: mixed int, Fraction (denominators up to 10^30),
    float and bool entries, negative ones included; a nonnegative integer
    vector scaled by a positive rational; the zero vector; or a
    BinaryVector."""
    entry = st.one_of(
        st.integers(-2, 4),
        st.fractions(min_value=-2, max_value=6, max_denominator=10**30),
        st.floats(min_value=-2, max_value=6),
        st.booleans(),
    )
    kind = draw(st.sampled_from(["mixed", "scaled", "zero", "binary"]))
    if kind == "mixed":
        return tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    if kind == "scaled":
        base = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        scale = draw(st.fractions(min_value=Fraction(1, 10**30), max_denominator=10**30))
        return tuple(x * scale for x in base)
    if kind == "zero":
        return (draw(st.sampled_from([0, Fraction(0), 0.0, -0.0, False])),) * n
    return BinaryVector(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def matrices_and_vectors(draw):
    n = draw(st.integers(1, 8))
    return draw(matrices(n)), draw(vectors(n))


@settings(max_examples=300, deadline=None)
@given(matrices_and_vectors())
def test_in_cone_matches_dense_system(Hv):
    H, v = Hv
    K = build_fundamental_cone(H)
    assert in_cone(H, v) == K.contains(v) == reference_cone_contains(K, v) == direct_cone_check(H, v)


@st.composite
def cone_systems(draw):
    """A ConeSystem from build_fundamental_cone, of a random or a label
    matrix."""
    if draw(st.booleans()):
        return build_fundamental_cone(draw(matrices(draw(st.integers(1, 8)))))
    m = draw(st.integers(1, 4))
    word = st.text(alphabet="IXYZ", min_size=m, max_size=m)
    return build_fundamental_cone(label_matrix(draw(st.lists(word, min_size=1, max_size=4))))


@settings(max_examples=400, deadline=None)
@given(cone_systems(), st.data())
def test_contains_matches_reference(K, data):
    v = data.draw(vectors(K.dim))
    assert K.contains(v) == reference_cone_contains(K, v)


@pytest.mark.parametrize(
    "v, expected",
    [
        ((1, 1, 1), ValueError),
        ((), ValueError),
        (None, TypeError),
        ((1, None), TypeError),
        ((1, float("nan")), ValueError),
        ((1, float("inf")), OverflowError),
        ((float("-inf"), 1), OverflowError),
        ((True, True), True),
        ((True, False), False),
        (("3/2", "3/2"), True),
        (("1/3", "2/3"), False),
        (("-1/2", "1/2"), False),
        (("1/x", "1"), ValueError),
    ],
)
def test_contains_input_contract(v, expected):
    """Every input the Fraction oracle rejects is rejected with the same
    exception type, and every input it reads gets its answer."""
    K = build_fundamental_cone(BinaryMatrix.from_rows([[1, 1]]))
    assert _outcome(reference_cone_contains, K, v) is expected
    assert _outcome(K.contains, v) is expected


def test_hagiwara_sums_of_codewords():
    """The vectors the certify benchmark times: on Hagiwara 42x84 a sum of
    three codewords is in the cone, and raising one coordinate past its
    row (v_i above the sum of the row's other entries, by an even amount so
    every parity check still holds) takes it out.  contains agrees with the
    Fraction oracle on the dense rows and with is_gc_pseudocodeword."""
    G = hagiwara_css_label_matrix()
    K = build_fundamental_cone(G)
    basis = [v.bits for v in gf2_nullspace_basis(G)]
    rng = random.Random(84)
    for _ in range(12):
        v = [0] * G.cols
        for _ in range(3):
            w = 0
            for b in basis:
                if rng.random() < 0.5:
                    w ^= b
            v = [x + (w >> i & 1) for i, x in enumerate(v)]
        assert K.contains(v) and reference_cone_contains(K, v) and is_gc_pseudocodeword(G, v)
        j = rng.randrange(G.rows)
        sup = G.row_support(j)
        i = rng.choice(sup)
        raised = sum(v[k] for k in sup if k != i) + 1
        v[i] = raised + (raised - v[i]) % 2
        assert not any(mat_vec_mod2(G, v))
        assert not K.contains(v)
        assert not reference_cone_contains(K, v)
        assert not is_gc_pseudocodeword(G, v)


class TestExtremeRays:
    def test_hamming_42(self, hamming7):
        rays = extreme_rays(build_fundamental_cone(hamming7))
        assert len(rays) == 42

    def test_pencil_single_ray(self):
        rays = extreme_rays(build_fundamental_cone(BinaryMatrix.from_rows([[1, 1]])))
        assert rays.rays == ((1, 1),)

    def test_orthant_units(self):
        rays = extreme_rays(build_fundamental_cone(BinaryMatrix(1, 5, [0])))
        assert set(rays.rays) == {
            tuple(1 if j == i else 0 for j in range(5)) for i in range(5)
        }

    def test_rays_are_members_and_homogeneous(self, hamming7):
        K = build_fundamental_cone(hamming7)
        for r in extreme_rays(K).rays:
            assert K.contains(r)
            assert K.contains(tuple(2 * x for x in r))
            assert K.contains(tuple(Fraction(x, 2) for x in r))

    def test_dimension_cap(self, monkeypatch):
        # 21 columns, one more than RAY_DIM_CAP: refused before double
        # description starts.
        def refuse(*args, **kwargs):
            raise AssertionError("double description ran above the ray dimension cap")

        K = build_fundamental_cone(BinaryMatrix(1, 21, [1]))
        monkeypatch.setattr(dd, "extreme_rays_int", refuse)
        with pytest.raises(BoundExceeded, match="^dimension 21 exceeds ray enumeration cap 20$"):
            extreme_rays(K)

    def test_rays_are_extremal(self, hamming7):
        # Certificate of extremality in a pointed cone: the inequalities
        # tight at a ray span a hyperplane (rank dim - 1).
        from test_polytope import rational_rank

        K = build_fundamental_cone(hamming7)
        for r in extreme_rays(K).rays:
            tight = [
                a
                for a in K.inequalities
                if sum(ai * xi for ai, xi in zip(a, r)) == 0
            ]
            assert rational_rank(tight) == K.dim - 1

    def test_insertion_order_invariance(self, hamming7):
        K = build_fundamental_cone(hamming7)
        reference = set(dd.extreme_rays_int(K.dim, K.inequalities))
        rng = random.Random(99)
        for _ in range(5):
            rows = list(K.inequalities)
            rng.shuffle(rows)
            assert set(dd.extreme_rays_int(K.dim, rows, sort_rows=False)) == reference


class TestIntersectCones:
    def test_row_split_equals_whole(self, hamming7):
        single = [
            build_fundamental_cone(BinaryMatrix(1, 7, [hamming7.row_bits[j]]))
            for j in range(3)
        ]
        K_split = intersect_cones(single)
        K_whole = build_fundamental_cone(hamming7)
        rng = random.Random(8)
        for _ in range(1000):
            v = random_rational_vector(rng, 7)
            assert K_split.contains(v) == K_whole.contains(v)

    def test_single_cone_identity(self, hamming7):
        K = build_fundamental_cone(hamming7)
        assert rows_of(intersect_cones([K])) == rows_of(K)

    def test_idempotence(self, hamming7):
        K = build_fundamental_cone(hamming7)
        assert rows_of(intersect_cones([K, K])) == rows_of(K)


class TestProductCone:
    def test_matches_block_diagonal_matrix(self, hamming7):
        from conedec.constructions import steane_matrix

        K_prod = product_cone(
            [build_fundamental_cone(hamming7), build_fundamental_cone(hamming7)]
        )
        K_steane = build_fundamental_cone(steane_matrix(3))
        rng = random.Random(17)
        for _ in range(1000):
            v = random_rational_vector(rng, 14)
            assert K_prod.contains(v) == K_steane.contains(v)

    def test_single_factor_identity(self, hamming7):
        K = build_fundamental_cone(hamming7)
        assert rows_of(product_cone([K])) == rows_of(K)

    def test_zero_in_second_factor(self, hamming7):
        K = build_fundamental_cone(hamming7)
        prod = product_cone([K, K])
        rng = random.Random(29)
        for _ in range(100):
            v = random_rational_vector(rng, 7)
            assert prod.contains(v + (Fraction(0),) * 7) == K.contains(v)


def _row_set(K):
    return K.dim, frozenset(K.inequalities)


@st.composite
def composition_cases(draw):
    """H1 and H2 of one width n <= 6, and H3 of any width up to 8."""
    n = draw(st.integers(1, 6))
    return draw(matrices(n)), draw(matrices(n)), draw(st.integers(1, 8).flatmap(matrices))


@settings(max_examples=300, deadline=None)
@given(composition_cases())
@example((BinaryMatrix.from_rows(HAMMING7),) * 3)  # idempotence; the Steane cone
def test_composed_cones_are_built_from_the_composed_matrix(case):
    """Intersecting or multiplying dense cone systems gives, as row sets,
    the cone of the stacked or block-diagonal matrix, and the intersection
    of the single-row cones of H is K(H); one factor is left as it is."""
    H1, H2, H3 = case
    K1 = build_fundamental_cone(H1)
    assert rows_of(intersect_cones([K1])) == rows_of(product_cone([K1])) == rows_of(K1)
    stacked = block_matrix([[H1], [H2]])
    assert _row_set(intersect_cones([K1, build_fundamental_cone(H2)])) == _row_set(
        build_fundamental_cone(stacked)
    )
    assert _row_set(product_cone([K1, build_fundamental_cone(H3)])) == _row_set(
        build_fundamental_cone(direct_sum(H1, H3))
    )
    single = [build_fundamental_cone(BinaryMatrix(1, H1.cols, [b])) for b in H1.row_bits]
    assert _row_set(intersect_cones(single)) == _row_set(K1)


class TestBlockrowEmbed:
    def test_hamming_doubled(self, hamming7):
        w, certified = blockrow_embed([MEMBER, MEMBER], [hamming7, hamming7])
        assert len(w) == 14
        assert certified

    def test_all_zero(self, hamming7):
        w, certified = blockrow_embed([(0,) * 7, (0,) * 7], [hamming7, hamming7])
        assert all(x == 0 for x in w) and certified

    def test_single_block_identity(self, hamming7):
        w, certified = blockrow_embed([MEMBER], [hamming7])
        assert w == tuple(Fraction(x) for x in MEMBER) and certified

    def test_rejects_nonmember_block(self, hamming7):
        with pytest.raises(ValueError):
            blockrow_embed([NONMEMBER, MEMBER], [hamming7, hamming7])

    def test_containment_on_random_members(self, hamming7):
        # Concatenations of members are members; the reverse is not claimed.
        K = build_fundamental_cone(hamming7)
        rays = extreme_rays(K).rays
        rng = random.Random(31)
        for _ in range(50):
            vs = []
            for _ in range(2):
                coeffs = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in rays]
                vs.append(
                    tuple(
                        sum(c * r[i] for c, r in zip(coeffs, rays))
                        for i in range(7)
                    )
                )
            _, certified = blockrow_embed(vs, [hamming7, hamming7])
            assert certified


class TestRepeatedBlockMembership:
    def test_even_split(self, hamming7):
        w = (1, 0, 0, 1, 1, 0, 1) + (1, 0, 0, 0, 0, 0, 0)
        # w_ki <= v_i holds and column sums give (2,0,0,1,1,0,1) = v.
        assert repeated_block_membership(hamming7, MEMBER, w, 2)

    def test_degenerate_split(self, hamming7):
        w = MEMBER + (0,) * 7
        assert repeated_block_membership(hamming7, MEMBER, w, 2)

    def test_coordinate_exceeds(self, hamming7):
        w = (3, 0, 0, 1, 1, 0, 1) + (0,) * 7  # w_11 = 3 > v_1 = 2
        assert not repeated_block_membership(hamming7, MEMBER, w, 2)

    def test_requires_member_v(self, hamming7):
        with pytest.raises(ValueError):
            repeated_block_membership(hamming7, NONMEMBER, NONMEMBER * 2, 2)

    def test_random_valid_splits(self, hamming7):
        # Per coordinate, one copy carries the full value and the others a
        # random fraction of it; the sandwich then always holds and the
        # direct membership re-check inside must agree.
        rng = random.Random(37)
        vv = tuple(Fraction(x) for x in MEMBER)
        for _ in range(50):
            t = rng.randint(1, 3)
            w = [[Fraction(0)] * 7 for _ in range(t)]
            for i in range(7):
                full = rng.randrange(t)
                for k in range(t):
                    w[k][i] = vv[i] if k == full else vv[i] * Fraction(rng.randint(0, 2), 2)
            flat = tuple(w[k][i] for k in range(t) for i in range(7))
            assert repeated_block_membership(hamming7, MEMBER, flat, t)


class TestAugmentColumnLift:
    def test_single_column_slack(self, hamming7):
        # Row 2 of the matrix dots MEMBER to exactly 2.
        s = BinaryVector.from_bits([0, 1, 0])
        assert augment_column_lift(hamming7, s, MEMBER, 2)

    def test_zero_slack_always_lifts(self, hamming7):
        s = BinaryVector.from_bits([1, 1, 1])
        assert augment_column_lift(hamming7, s, MEMBER, 0)

    def test_condition_fails_above_min(self, hamming7):
        s = BinaryVector.from_bits([0, 1, 0])
        assert not augment_column_lift(hamming7, s, MEMBER, Fraction(5, 2))

    def test_permutation_form(self, hamming7):
        row_dots = [
            sum(Fraction(MEMBER[i]) for i in hamming7.row_support(j))
            for j in range(3)
        ]
        sigma = [2, 0, 1]
        w = [Fraction(0)] * 3
        for j in range(3):
            w[sigma[j]] = row_dots[j]
        assert augment_column_lift(hamming7, sigma, MEMBER, w)
        w[sigma[1]] += 1
        assert not augment_column_lift(hamming7, sigma, MEMBER, w)

    def test_rejects_nonmember(self, hamming7):
        s = BinaryVector.from_bits([0, 1, 0])
        with pytest.raises(ValueError):
            augment_column_lift(hamming7, s, NONMEMBER, 0)

    def test_containment_is_proper(self, hamming7):
        # The 8-coordinate witness (2,0,0,2,1,0,1,2) lies in the cone of the
        # matrix augmented by the column (0,1,0)^T even though its 7-prefix
        # is not a member of the base cone; so the slack condition is
        # sufficient but not necessary.
        aug = BinaryMatrix(
            3, 8, [b | (s << 7) for b, s in zip(hamming7.row_bits, (0, 1, 0))]
        )
        K_aug = build_fundamental_cone(aug)
        witness = (2, 0, 0, 2, 1, 0, 1, 2)
        assert K_aug.contains(witness)
        assert not build_fundamental_cone(hamming7).contains(witness[:7])


def test_confirm_raises_assertion_error(hamming7):
    cone._confirm(hamming7, MEMBER)
    with pytest.raises(AssertionError):
        cone._confirm(hamming7, NONMEMBER)


def _outcome(rule, *args):
    """What a lift rule returns, or the type of the exception it raises."""
    try:
        return rule(*args)
    except Exception as exc:  # compared by type against the oracle
        return type(exc)


def _same(rule, reference, *args):
    assert _outcome(rule, *args) == _outcome(reference, *args)


_SCALES = st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(4, 3)])


@st.composite
def lift_cases(draw):
    """Random H (n <= 6; empty, weight-1 and repeated rows), a rational v
    inside K(H), perturbed, negative or of the wrong length, and t in 1..3."""
    n = draw(st.integers(1, 6))
    row = st.one_of(
        st.just(0),
        st.integers(0, n - 1).map(lambda i: 1 << i),
        st.integers(0, (1 << n) - 1),
    )
    rows = draw(st.lists(row, min_size=1, max_size=4))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    H = BinaryMatrix(len(rows), n, rows)
    rays = extreme_rays(build_fundamental_cone(H)).rays
    coeffs = draw(st.lists(_SCALES, min_size=len(rays), max_size=len(rays)))
    v = [sum((c * r[i] for c, r in zip(coeffs, rays)), Fraction(0)) for i in range(n)]
    kind = draw(st.sampled_from(["member", "member", "raised", "negative", "short", "long"]))
    if kind == "raised":
        v[draw(st.integers(0, n - 1))] += draw(st.integers(1, 3))
    elif kind == "negative":
        v[draw(st.integers(0, n - 1))] = Fraction(-1, 2)
    elif kind == "short":
        v = v[:-1]
    elif kind == "long":
        v = v + [Fraction(0)]
    return H, tuple(v), draw(st.integers(1, 3))


@settings(max_examples=400, deadline=None)
@given(lift_cases(), st.data())
def test_lift_rules_match_reference(case, data):
    """blockrow_embed, repeated_block_membership and augment_column_lift
    return the oracle's result, or raise the same exception type, on
    members, non-members and wrong lengths, with slacks below, on and
    above the boundary, negative, zero and fractional."""
    H, v, t = case
    n, m = H.cols, H.rows
    base = (list(v) + [Fraction(0)] * n)[:n]
    draw = data.draw

    # Block rows: t blocks, one of them possibly another matrix, with a row
    # count that may differ, and a vector of its own (0, all ones or 2e_0).
    Hs, vs = [H] * t, [v] * t
    if draw(st.booleans()):
        rows2 = draw(st.sampled_from([m, m, m + 1]))
        cols2 = draw(st.integers(1, 4))
        H2 = BinaryMatrix(rows2, cols2, [draw(st.integers(0, 15)) for _ in range(rows2)])
        k = draw(st.integers(0, t - 1))
        Hs[k] = H2
        vs[k] = draw(st.sampled_from([(0,) * cols2, (1,) * cols2, (2,) + (0,) * (cols2 - 1)]))
    if draw(st.integers(0, 9)) == 0:
        vs = vs[:-1]
    _same(blockrow_embed, reference_blockrow_embed, vs, Hs)

    # Repeated blocks: a sandwich split of v (one copy carries v_i, the
    # others a fraction of it), then one perturbation.
    w = [[x * draw(_SCALES) for x in base] for _ in range(t)]
    for i in range(n):
        w[draw(st.integers(0, t - 1))][i] = base[i]
    flat = [x for part in w for x in part]
    move = draw(st.sampled_from(["none", "none", "raise", "lower", "negative", "length"]))
    k = draw(st.integers(0, len(flat) - 1))
    if move == "raise":
        flat[k] += Fraction(1, 2)
    elif move == "lower":
        flat = [x / 2 for x in flat]
    elif move == "negative":
        flat[k] = Fraction(-1)
    elif move == "length":
        flat.append(Fraction(0))
    _same(repeated_block_membership, reference_repeated_block_membership, H, v, flat, t)

    # Appended column s^T with a scalar slack at, below or above the
    # smallest touched row dot, or negative.
    dots = [sum(base[i] for i in H.row_support(j)) for j in range(m)]
    s = BinaryVector(draw(st.sampled_from([m, m, m, m + 1])), draw(st.integers(0, (1 << m) - 1)))
    cap = min((dots[j] for j in s.support() if j < m), default=Fraction(2))
    slack = draw(st.sampled_from([cap, cap / 2, cap + Fraction(1, 3), Fraction(0), Fraction(-1, 2)]))
    _same(augment_column_lift, reference_augment_column_lift, H, s, v, slack)

    # Appended permutation block J_sigma: w_sigma(j) scaled from row j's dot.
    sigma = draw(st.permutations(range(m)))
    if draw(st.integers(0, 9)) == 0:
        sigma = draw(st.sampled_from([[0] * m, list(range(1, m + 1))]))
    ws = [Fraction(0)] * m
    for j in range(m):
        if 0 <= sigma[j] < m:
            ws[sigma[j]] = dots[j] * draw(_SCALES)
    move = draw(st.sampled_from(["none", "none", "negative", "length"]))
    if move == "negative":
        ws[draw(st.integers(0, m - 1))] = Fraction(-1, 3)
    elif move == "length":
        ws.append(Fraction(0))
    _same(augment_column_lift, reference_augment_column_lift, H, sigma, v, ws)
