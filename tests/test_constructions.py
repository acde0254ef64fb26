import random
from fractions import Fraction

import pytest

from conedec import (
    BinaryMatrix,
    build_fundamental_cone,
    cyclic_shift,
    enumerate_codewords,
    enumerate_pseudocodewords,
    extreme_rays,
    is_quasi_cyclic,
    mat_vec_mod2,
)
from conedec.constructions import (
    HAGIWARA_BLOCK_SIZE,
    HAGIWARA_EXPONENTS_C,
    HAGIWARA_EXPONENTS_D,
    ExponentMatrix,
    PauliString,
    block_circulant,
    blockcirculant_from_circulant,
    circulant_permutation,
    css_matrix,
    direct_sum,
    hagiwara_css_label_matrix,
    hamming_matrix,
    label_matrix,
    qc_from_exponents,
    sc_ldpc,
    steane_matrix,
)
from conedec.gf2 import block_matrix, gf2_rank

from conftest import HAMMING7, random_matrix
from reference_cone import intersect_cones, rows_of


class TestHammingMatrix:
    def test_cyclic_variant_exact_rows(self):
        assert hamming_matrix(3, cyclic=True).to_lists() == [list(r) for r in HAMMING7]

    def test_r3_rank_and_codewords(self):
        for cyclic in (False, True):
            H = hamming_matrix(3, cyclic=cyclic)
            assert (H.rows, H.cols) == (3, 7)
            assert gf2_rank(H) == 3
            assert len(enumerate_codewords(H)) == 16

    def test_r2(self):
        H = hamming_matrix(2)
        words = {c.to01() for c in enumerate_codewords(H)}
        assert words == {"000", "111"}

    def test_columns_distinct_nonzero(self):
        for r in (2, 3, 4, 5):
            H = hamming_matrix(r)
            cols = [tuple(H.entry(j, i) for j in range(r)) for i in range(H.cols)]
            assert len(set(cols)) == H.cols
            assert all(any(c) for c in cols)

    def test_r_too_small(self):
        with pytest.raises(ValueError):
            hamming_matrix(1)
        with pytest.raises(ValueError):
            hamming_matrix(4, cyclic=True)


class TestCssMatrix:
    def test_hamming_self_pair(self, hamming7):
        H = css_matrix(hamming7, hamming7)
        assert (H.rows, H.cols) == (6, 14)

    def test_rejects_nonorthogonal(self):
        with pytest.raises(ValueError, match="rows 0 of H1 and 0 of H2"):
            css_matrix(
                BinaryMatrix.from_rows([[1, 1, 0]]),
                BinaryMatrix.from_rows([[1, 0, 1]]),
            )

    def test_zero_second_factor(self):
        H = css_matrix(BinaryMatrix.from_rows([[1, 1, 0]]), BinaryMatrix(1, 3, [0]))
        assert H.to_lists()[0] == [1, 1, 0, 0, 0, 0]

    def test_accepts_iff_all_pairs_orthogonal(self):
        rng = random.Random(47)
        for _ in range(30):
            r, n = rng.randint(1, 3), rng.randint(2, 6)
            H1 = BinaryMatrix(r, n, [rng.getrandbits(n) for _ in range(r)])
            H2 = BinaryMatrix(r, n, [rng.getrandbits(n) for _ in range(r)])
            orthogonal = all(
                (a & b).bit_count() % 2 == 0
                for a in H1.row_bits
                for b in H2.row_bits
            )
            if orthogonal:
                css_matrix(H1, H2)
            else:
                with pytest.raises(ValueError):
                    css_matrix(H1, H2)


class TestSteaneMatrix:
    def test_r3_shape_and_blocks(self, hamming7):
        S = steane_matrix(3)
        assert (S.rows, S.cols) == (6, 14)
        for j in range(3):
            assert S.row_bits[j] == hamming7.row_bits[j]
            assert S.row_bits[3 + j] == hamming7.row_bits[j] << 7
        assert gf2_rank(S) == 6

    def test_r4(self):
        S = steane_matrix(4)
        assert (S.rows, S.cols) == (8, 30)
        assert gf2_rank(S) == 8


class TestLabelMatrix:
    def test_xzzxi(self):
        H = label_matrix(["XZZXI"])
        assert H.to_lists() == [[1, 0, 0, 1, 0, 0, 1, 1, 0, 0]]

    def test_identity_word(self):
        assert label_matrix(["IIII"]).row_bits == (0,)

    def test_yy(self):
        assert label_matrix(["YY"]).to_lists() == [[1, 1, 1, 1]]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            label_matrix(["XZ", "XZZ"])
        with pytest.raises(ValueError):
            PauliString("X-Z")
        with pytest.raises(ValueError):
            PauliString("iXZ")

    def test_commuting_generators_symplectic_orthogonal(self, hamming7):
        gens = _steane_generators(hamming7)
        M = label_matrix(gens)
        n = 7
        for a in range(M.rows):
            for b in range(M.rows):
                xa = M.row_bits[a] & ((1 << n) - 1)
                za = M.row_bits[a] >> n
                xb = M.row_bits[b] & ((1 << n) - 1)
                zb = M.row_bits[b] >> n
                sym = ((xa & zb).bit_count() + (za & xb).bit_count()) % 2
                assert sym == 0


def _steane_generators(hamming7):
    gens = []
    for kind in "XZ":
        for j in range(3):
            sup = set(hamming7.row_support(j))
            gens.append("".join(kind if i in sup else "I" for i in range(7)))
    return gens


def _single_generator_intersection(gens):
    return intersect_cones([build_fundamental_cone(label_matrix([g])) for g in gens])


class TestNormalizerCone:
    def test_single_generator(self):
        K = build_fundamental_cone(label_matrix(["XX"]))
        K_direct = build_fundamental_cone(BinaryMatrix.from_rows([[1, 1, 0, 0]]))
        assert K == K_direct

    def test_steane_generators_match_matrix_cone(self, hamming7):
        gens = _steane_generators(hamming7)
        K_gen = build_fundamental_cone(label_matrix(gens))
        # The cone of the stacked label matrix is the intersection of the
        # single-generator cones, row for row.
        assert rows_of(K_gen) == rows_of(_single_generator_intersection(gens))
        K_mat = build_fundamental_cone(steane_matrix(3))
        rng = random.Random(53)
        for _ in range(300):
            v = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(14))
            assert K_gen.contains(v) == K_mat.contains(v)
        for _ in range(300):
            n = rng.randint(1, 5)
            pool = ["".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(4)]
            gens = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            assert rows_of(build_fundamental_cone(label_matrix(gens))) == rows_of(
                _single_generator_intersection(gens)
            )

    def test_empty_support_generator(self):
        K = build_fundamental_cone(label_matrix(["II"]))
        assert K.contains((3, 1, 4, 1))
        assert not K.contains((1, -1, 0, 0))


class TestCirculantPermutation:
    def test_shift_one(self):
        P = circulant_permutation(3, 1)
        assert P.to_lists() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_identity_shifts(self):
        assert circulant_permutation(4, 0).to_lists() == circulant_permutation(4, 4).to_lists()
        assert circulant_permutation(1, 0).to_lists() == [[1]]

    def test_weights(self):
        P = circulant_permutation(5, 3)
        assert all(P.row(j).weight() == 1 for j in range(5))
        assert all(P.transpose().row(i).weight() == 1 for i in range(5))


class TestQcFromExponents:
    def test_hagiwara_blocks(self):
        for exps in (HAGIWARA_EXPONENTS_C, HAGIWARA_EXPONENTS_D):
            H = qc_from_exponents(ExponentMatrix.from_rows(exps, HAGIWARA_BLOCK_SIZE))
            assert (H.rows, H.cols) == (21, 42)
            assert all(H.row(j).weight() == 6 for j in range(21))
            T = H.transpose()
            assert all(T.row(i).weight() == 3 for i in range(42))

    def test_single_zero_exponent(self):
        H = qc_from_exponents(ExponentMatrix.from_rows([[0]], 3))
        assert H.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_block_weights_are_one(self):
        E = ExponentMatrix.from_rows([[2, 5], [1, 0]], 7)
        H = qc_from_exponents(E)
        for a in range(2):
            for b in range(2):
                block_weight = sum(
                    H.entry(a * 7 + u, b * 7 + w) for u in range(7) for w in range(7)
                )
                assert block_weight == 7  # one 1 per row of the block

    def test_quasi_cyclic_after_reindexing(self):
        E = ExponentMatrix.from_rows(HAGIWARA_EXPONENTS_C, HAGIWARA_BLOCK_SIZE)
        H = qc_from_exponents(E)
        B = blockcirculant_from_circulant(H, c=3, n0=6, t=7)
        assert is_quasi_cyclic(B, 6)


class TestBlockCirculant:
    def test_two_block_pattern(self):
        H = block_circulant(
            [BinaryMatrix.from_rows([[1, 0]]), BinaryMatrix.from_rows([[0, 1]])]
        )
        assert H.to_lists() == [[1, 0, 0, 1], [0, 1, 1, 0]]

    def test_single_block_identity(self, hamming7):
        assert block_circulant([hamming7]) == hamming7

    def test_rows_are_quasi_cyclic(self):
        rng = random.Random(59)
        blocks = [BinaryMatrix(2, 3, [rng.getrandbits(3) for _ in range(2)]) for _ in range(4)]
        H = block_circulant(blocks)
        assert is_quasi_cyclic(H, 3)

    def test_nullspace_closed_under_block_shift(self):
        blocks = [
            BinaryMatrix.from_rows([[1, 1, 0]]),
            BinaryMatrix.from_rows([[0, 1, 1]]),
        ]
        H = block_circulant(blocks)
        n0 = 3
        for c in enumerate_codewords(H):
            shifted = cyclic_shift(c, n0)
            assert not any(mat_vec_mod2(H, shifted.to_tuple()))


class TestScLdpc:
    def test_terminated_two_sections(self):
        H0 = BinaryMatrix.from_rows([[1, 1]])
        H = sc_ldpc([H0, H0], L=2, mode="terminated")
        assert H.to_lists() == [[1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1]]

    def test_memory_zero_is_block_diagonal(self):
        H0 = BinaryMatrix.from_rows([[1, 0, 1]])
        for mode in ("terminated", "tailbiting"):
            H = sc_ldpc([H0], L=3, mode=mode)
            assert H == direct_sum(direct_sum(H0, H0), H0)

    def test_tailbiting_block_rows(self):
        H0 = BinaryMatrix.from_rows([[1, 1, 0]])
        H1 = BinaryMatrix.from_rows([[1, 0, 1]])
        H = sc_ldpc([H0, H1], L=3, mode="tailbiting")
        assert (H.rows, H.cols) == (3, 9)
        rows = H.to_lists()
        assert rows[0] == [1, 1, 0, 0, 0, 0, 1, 0, 1]
        assert rows[1] == [1, 0, 1, 1, 1, 0, 0, 0, 0]
        assert rows[2] == [0, 0, 0, 1, 0, 1, 1, 1, 0]

    def test_every_block_column_has_each_block_once(self):
        H0 = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        H1 = BinaryMatrix.from_rows([[1, 0, 1], [1, 1, 1]])
        for mode in ("terminated", "tailbiting"):
            H = sc_ldpc([H0, H1], L=4, mode=mode)
            block_rows = H.rows // 2
            for j in range(4):
                seen = []
                for i in range(block_rows):
                    block = [
                        [H.entry(i * 2 + a, j * 3 + b) for b in range(3)]
                        for a in range(2)
                    ]
                    if any(any(row) for row in block):
                        seen.append(tuple(map(tuple, block)))
                assert sorted(seen) == sorted(
                    [tuple(map(tuple, H0.to_lists())), tuple(map(tuple, H1.to_lists()))]
                )

    def test_tailbiting_needs_enough_sections(self):
        H0 = BinaryMatrix.from_rows([[1, 1]])
        with pytest.raises(ValueError):
            sc_ldpc([H0, H0], L=1, mode="tailbiting")


class TestCssPseudocodewordProduct:
    def test_bounded_enumeration_equals_product(self, hamming7):
        S = steane_matrix(3)
        whole = {p.coords for p in enumerate_pseudocodewords(S, 1)}
        factor = [p.coords for p in enumerate_pseudocodewords(hamming7, 1)]
        assert whole == {a + b for a in factor for b in factor}

    def test_spot_check_bound_two(self):
        H1 = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        H2 = BinaryMatrix.from_rows([[1, 1, 1]])
        # Orthogonality: rows of H1 each meet (1,1,1) in two positions.
        M = css_matrix(H1, H2)
        whole = {p.coords for p in enumerate_pseudocodewords(M, 2)}
        parts = {
            a.coords + b.coords
            for a in enumerate_pseudocodewords(H1, 2)
            for b in enumerate_pseudocodewords(H2, 2)
        }
        assert whole == parts


class TestQcCssContainment:
    def test_column_cones_of_permutation_blocks_are_trivial(self):
        # Each block is a permutation, whose cone is the origin alone, so
        # the per-column intersections contribute only the zero vector; the
        # containment is exercised honestly but only at the apex here (the
        # spatially-coupled suite exercises it with nonzero members).
        P = circulant_permutation(7, 3)
        K = build_fundamental_cone(P)
        assert extreme_rays(K).rays == ()
        assert K.contains((0,) * 7)
        assert not K.contains((1,) + (0,) * 6)

    def test_hagiwara_concatenation_containment(self):
        G = hagiwara_css_label_matrix()
        K_whole = build_fundamental_cone(G)
        t = HAGIWARA_BLOCK_SIZE
        rng = random.Random(67)
        for _ in range(25):
            parts = []
            for exps in (HAGIWARA_EXPONENTS_C, HAGIWARA_EXPONENTS_D):
                for col in range(6):
                    blocks = [circulant_permutation(t, exps[row][col]) for row in range(3)]
                    K_col = build_fundamental_cone(block_matrix([[P] for P in blocks]))
                    rays = extreme_rays(K_col).rays
                    assert rays == extreme_rays(
                        intersect_cones([build_fundamental_cone(P) for P in blocks])
                    ).rays
                    v = [Fraction(0)] * t
                    for r in rays:
                        c = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                        v = [x + c * y for x, y in zip(v, r)]
                    parts.extend(v)
            assert K_whole.contains(parts)


class TestScContainment:
    def test_concatenations_lie_in_coupled_cone(self):
        H0 = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        H1 = BinaryMatrix.from_rows([[1, 0, 1], [1, 1, 0]])
        K_int = build_fundamental_cone(block_matrix([[H0], [H1]]))
        rays = extreme_rays(K_int).rays
        assert rays == extreme_rays(
            intersect_cones([build_fundamental_cone(H0), build_fundamental_cone(H1)])
        ).rays
        rng = random.Random(71)
        for mode in ("terminated", "tailbiting"):
            H = sc_ldpc([H0, H1], L=3, mode=mode)
            K = build_fundamental_cone(H)
            for _ in range(50):
                w = []
                for _ in range(3):
                    v = [Fraction(0)] * 3
                    for r in rays:
                        c = Fraction(rng.randint(0, 4), rng.randint(1, 3))
                        v = [x + c * y for x, y in zip(v, r)]
                    w.extend(v)
                assert K.contains(w)


class TestHagiwaraCss:
    def test_shape(self):
        G = hagiwara_css_label_matrix()
        assert (G.rows, G.cols) == (42, 84)

    def test_quasi_cyclic_after_block_circulant_permutation(self):
        G = hagiwara_css_label_matrix()
        B = blockcirculant_from_circulant(G, c=6, n0=12, t=7)
        assert is_quasi_cyclic(B, 12)


# Reference assemblers: the hand-written bit-placement loops that the
# builders and the cone composition rules used before block_matrix.


def _ref_direct_sum(H1, H2):
    rows = [b for b in H1.row_bits] + [b << H1.cols for b in H2.row_bits]
    return BinaryMatrix(H1.rows + H2.rows, H1.cols + H2.cols, rows)


def _ref_qc_from_exponents(E):
    t = E.block_size
    br = len(E.entries)
    bc = len(E.entries[0])
    rows = []
    for a in range(br):
        for u in range(t):
            bits = 0
            for b in range(bc):
                shift = E.entries[a][b]
                bits |= 1 << (b * t + (u + shift) % t)
            rows.append(bits)
    return BinaryMatrix(br * t, bc * t, rows)


def _ref_block_circulant(blocks):
    c, n0 = blocks[0].rows, blocks[0].cols
    t = len(blocks)
    rows = []
    for i in range(t):
        for a in range(c):
            bits = 0
            for k in range(t):
                bits |= blocks[(k - i) % t].row_bits[a] << (k * n0)
            rows.append(bits)
    return BinaryMatrix(t * c, t * n0, rows)


def _ref_sc_ldpc(blocks, L, mode):
    m = len(blocks) - 1
    nc, nr = blocks[0].rows, blocks[0].cols
    block_rows = L + m if mode == "terminated" else L
    rows = []
    for i in range(block_rows):
        for a in range(nc):
            bits = 0
            for j in range(L):
                k = (i - j) % L if mode == "tailbiting" else i - j
                if 0 <= k <= m:
                    bits |= blocks[k].row_bits[a] << (j * nr)
            rows.append(bits)
    return BinaryMatrix(block_rows * nc, L * nr, rows)


def _ref_side_by_side(Hs):
    rows = []
    for j in range(Hs[0].rows):
        bits = shift = 0
        for h in Hs:
            bits |= h.row_bits[j] << shift
            shift += h.cols
        rows.append(bits)
    return BinaryMatrix(Hs[0].rows, sum(h.cols for h in Hs), rows)


class TestBlockMatrix:
    CASES = 300

    def test_direct_sum_matches_reference(self):
        rng = random.Random(71)
        for _ in range(self.CASES):
            H1 = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 9))
            H2 = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 9))
            assert direct_sum(H1, H2) == _ref_direct_sum(H1, H2)

    def test_qc_from_exponents_matches_reference(self):
        rng = random.Random(73)
        for _ in range(self.CASES):
            t = rng.randint(1, 8)
            br, bc = rng.randint(1, 4), rng.randint(1, 6)
            exps = [[rng.randint(-3, 3 * t) for _ in range(bc)] for _ in range(br)]
            E = ExponentMatrix.from_rows(exps, t)
            assert qc_from_exponents(E) == _ref_qc_from_exponents(E)

    def test_block_circulant_matches_reference(self):
        rng = random.Random(79)
        for _ in range(self.CASES):
            c, n0 = rng.randint(1, 4), rng.randint(1, 5)
            blocks = [random_matrix(rng, c, n0) for _ in range(rng.randint(1, 5))]
            assert block_circulant(blocks) == _ref_block_circulant(blocks)

    def test_sc_ldpc_matches_reference(self):
        rng = random.Random(83)
        for _ in range(self.CASES):
            nc, nr = rng.randint(1, 4), rng.randint(1, 5)
            blocks = [random_matrix(rng, nc, nr) for _ in range(rng.randint(1, 4))]
            mode = rng.choice(("terminated", "tailbiting"))
            low = len(blocks) if mode == "tailbiting" else 1
            L = rng.randint(low, low + 4)
            assert sc_ldpc(blocks, L, mode) == _ref_sc_ldpc(blocks, L, mode)

    def test_block_row_matches_reference(self):
        # The [H_1 ... H_t], [H ... H] and [H1 | extra] matrices of the cone
        # composition rules.
        rng = random.Random(89)
        for _ in range(self.CASES):
            r = rng.randint(1, 5)
            Hs = [random_matrix(rng, r, rng.randint(1, 8)) for _ in range(rng.randint(1, 4))]
            assert block_matrix([Hs]) == _ref_side_by_side(Hs)
            t = rng.randint(1, 4)
            assert block_matrix([[Hs[0]] * t]) == _ref_side_by_side([Hs[0]] * t)

    def test_hagiwara_matches_reference(self):
        hc, hd = (
            _ref_qc_from_exponents(ExponentMatrix.from_rows(exps, HAGIWARA_BLOCK_SIZE))
            for exps in (HAGIWARA_EXPONENTS_C, HAGIWARA_EXPONENTS_D)
        )
        assert hagiwara_css_label_matrix() == _ref_direct_sum(hc, hd)

    def test_placement(self):
        A = BinaryMatrix.from_rows([[1, 1]])
        B = BinaryMatrix.from_rows([[1], [1]])
        C = BinaryMatrix.from_rows([[0, 1], [1, 0]])
        assert block_matrix([[A, None], [C, B]]).to_lists() == [
            [1, 1, 0],
            [0, 1, 1],
            [1, 0, 1],
        ]

    @pytest.mark.parametrize(
        "grid",
        [
            [],
            [[]],
            [[BinaryMatrix(1, 2, [1]), BinaryMatrix(1, 2, [2])], [BinaryMatrix(1, 2, [1])]],
            [[BinaryMatrix(1, 2, [1]), BinaryMatrix(2, 2, [1, 2])]],
            [[BinaryMatrix(1, 2, [1])], [BinaryMatrix(1, 3, [1])]],
            [[BinaryMatrix(1, 2, [1]), BinaryMatrix(1, 2, [2])], [None, None]],
            [[BinaryMatrix(1, 2, [1]), None], [BinaryMatrix(1, 2, [2]), None]],
        ],
        ids=[
            "empty",
            "empty-row",
            "ragged",
            "row-heights-disagree",
            "column-widths-disagree",
            "all-none-row",
            "all-none-column",
        ],
    )
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValueError):
            block_matrix(grid)

    def test_block_circulant_rejects_mismatched_blocks(self):
        # block_matrix makes the shape check: every block meets every block
        # row and block column.
        for other in (BinaryMatrix(1, 3, [1]), BinaryMatrix(2, 2, [1, 2])):
            with pytest.raises(ValueError):
                block_circulant([BinaryMatrix(1, 2, [1]), other])

