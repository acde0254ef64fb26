import itertools
import random
from fractions import Fraction

import pytest

from conedec import (
    BinaryMatrix,
    PolytopeSystem,
    build_fundamental_cone,
    build_relaxed_polytope,
    codeword_polytope,
    cyclic_shift,
    enumerate_codewords,
    enumerate_vertices,
    lp_pseudocodewords,
)
from conedec import polytope
from conedec.constructions import hamming_matrix
from conedec.errors import BoundExceeded


def rational_rank(rows):
    """Row rank over Q, by fraction Gaussian elimination (test-local oracle)."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestBuildRelaxedPolytope:
    def test_hamming_counts(self, hamming7):
        P = build_relaxed_polytope(hamming7)
        # Three weight-4 rows expand to 8 odd-subset inequalities each,
        # plus both sides of the box.
        assert len(P.inequalities) == 3 * 8 + 14

    def test_single_check_is_its_hull(self):
        H = BinaryMatrix.from_rows([[1, 1, 1]])
        P = build_relaxed_polytope(H)
        even = [v for v in itertools.product((0, 1), repeat=3) if sum(v) % 2 == 0]
        odd = [v for v in itertools.product((0, 1), repeat=3) if sum(v) % 2 == 1]
        for v in even:
            assert P.contains(v)
        for v in odd:
            assert not P.contains(v)
        # Midpoints of even-weight words stay inside; the all-1/2 point does.
        assert P.contains((Fraction(1, 2),) * 3)

    def test_zero_weight_row_gives_box(self):
        P = build_relaxed_polytope(BinaryMatrix(1, 3, [0]))
        assert len(P.inequalities) == 6
        for v in itertools.product((0, 1), repeat=3):
            assert P.contains(v)

    def test_row_weight_cap(self):
        # One check of weight 21, one above ROW_WEIGHT_CAP: refused before
        # the first row, box rows included.
        H = BinaryMatrix(1, 21, [(1 << 21) - 1])
        message = "^row 0 has weight 21, above the expansion cap 20$"
        with pytest.raises(BoundExceeded, match=message):
            next(polytope.relaxed_rows(H))
        with pytest.raises(BoundExceeded, match=message):
            build_relaxed_polytope(H)


SQUARE = (((-1, 0), 0), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1))  # the box [0, 1]^2


@pytest.mark.parametrize(
    "dim, rows",
    [
        (0, ()),
        (-1, ()),
        (2, SQUARE + (((1, 1, 1), 1),)),
        (2, SQUARE + (((1,), 1),)),
        (2, (((), 0),) + SQUARE),
    ],
    ids=["dim-zero", "dim-negative", "long-row", "short-row", "empty-row"],
)
def test_malformed_rows_rejected(dim, rows):
    with pytest.raises(ValueError):
        PolytopeSystem(dim, rows)


def test_square_is_well_formed():
    P = PolytopeSystem(2, SQUARE)
    assert len(enumerate_vertices(P)) == 4
    assert P.contains((1, 0)) and not P.contains((2, 0))


class TestEnumerateVertices:
    def test_hamming_96(self, hamming7):
        vs = enumerate_vertices(build_relaxed_polytope(hamming7))
        assert len(vs) == 96

    def test_hamming_integral_are_codewords(self, hamming7):
        vs = enumerate_vertices(build_relaxed_polytope(hamming7))
        integral = {
            tuple(int(x) for x in v)
            for v, flag in zip(vs.vertices, vs.integral)
            if flag
        }
        codewords = {c.to_tuple() for c in enumerate_codewords(hamming7)}
        assert len(integral) == 16
        assert integral == codewords

    def test_single_check_all_integral(self):
        H = BinaryMatrix.from_rows([[1, 1, 1]])
        vs = enumerate_vertices(build_relaxed_polytope(H))
        assert len(vs) == 4
        assert all(vs.integral)

    def test_vertices_satisfy_system(self, hamming7):
        P = build_relaxed_polytope(hamming7)
        vs = enumerate_vertices(P)
        for v in vs.vertices:
            assert P.contains(v)

    def test_vertices_are_basic_points(self, hamming7):
        # Every vertex has at least dim linearly independent tight rows.
        P = build_relaxed_polytope(hamming7)
        vs = enumerate_vertices(P)
        for v in vs.vertices[:20]:
            tight = [
                a
                for a, b in P.inequalities
                if sum(ai * xi for ai, xi in zip(a, v)) == b
            ]
            assert rational_rank(tight) == P.dim

    def test_dimension_cap(self, monkeypatch):
        # 17 columns, one more than VERTEX_DIM_CAP: refused before double
        # description starts.
        def refuse(*args, **kwargs):
            raise AssertionError("double description ran above the vertex dimension cap")

        P = build_relaxed_polytope(BinaryMatrix(1, 17, [1]))
        monkeypatch.setattr(polytope.dd, "extreme_rays_int", refuse)
        with pytest.raises(BoundExceeded, match="^dimension 17 exceeds vertex enumeration cap 16$"):
            enumerate_vertices(P)

    def test_census_checks_the_dimension_cap_first(self, monkeypatch):
        # [31,26] expands to 163,902 rows; the cap refuses it before any.
        def refuse(*args, **kwargs):
            raise AssertionError("rows built above the vertex dimension cap")

        monkeypatch.setattr(polytope, "relaxed_rows", refuse)
        with pytest.raises(BoundExceeded) as got:
            lp_pseudocodewords(hamming_matrix(5))
        assert str(got.value) == "dimension 31 exceeds vertex enumeration cap 16"

    def test_missing_lower_box_row(self):
        # x_0 >= 0 is absent, so double description has no seed ray for x_0.
        P = PolytopeSystem(2, (((1, 0), 1), ((0, 1), 1), ((0, -1), 0)))
        with pytest.raises(ValueError):
            enumerate_vertices(P)

    def test_unbounded_system(self):
        # Only the lower box rows: the rays e_i have t = 0.
        P = PolytopeSystem(2, (((-1, 0), 0), ((0, -1), 0)))
        with pytest.raises(ValueError, match="unbounded"):
            enumerate_vertices(P)

    def test_vertices_strictly_increasing(self, hamming7):
        # Sorting the rays by x * (L / t) must give the Fraction order of
        # the points, each point once.
        rng = random.Random(97)
        mats = [hamming7] + [
            BinaryMatrix(r, n, [rng.getrandbits(n) for _ in range(r)])
            for r, n in ((rng.randint(1, 3), rng.randint(1, 5)) for _ in range(20))
        ]
        for H in mats:
            vs = enumerate_vertices(build_relaxed_polytope(H)).vertices
            assert all(a < b for a, b in zip(vs, vs[1:]))

    def test_tiny_brute_force_oracle(self):
        # For a 2-variable system, vertices are checkable by hand:
        # the single check [1 1] allows only 00 and 11.
        H = BinaryMatrix.from_rows([[1, 1]])
        vs = enumerate_vertices(build_relaxed_polytope(H))
        assert set(vs.vertices) == {
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1)),
        }


class TestCodewordPolytope:
    def test_hamming_16(self, hamming7):
        assert len(codeword_polytope(hamming7)) == 16

    def test_trivial_code(self):
        H = BinaryMatrix(3, 3, [1, 2, 4])
        vs = codeword_polytope(H)
        assert vs.vertices == ((Fraction(0),) * 3,)

    def test_single_check_matches_relaxed(self):
        H = BinaryMatrix.from_rows([[1, 1, 1]])
        assert set(codeword_polytope(H).vertices) == set(
            enumerate_vertices(build_relaxed_polytope(H)).vertices
        )

    def test_codewords_inside_relaxed_polytope(self):
        rng = random.Random(19)
        from conftest import random_matrix

        for _ in range(15):
            H = random_matrix(rng, rng.randint(1, 3), rng.randint(2, 6))
            P = build_relaxed_polytope(H)
            for c in codeword_polytope(H).vertices:
                assert P.contains(c)


class TestLpPseudocodewords:
    def test_hamming_partition(self, hamming7):
        census = lp_pseudocodewords(hamming7)
        assert len(census.vertex_set) == 96
        assert len(census.codeword) == 16
        assert len(census.non_codeword) == 80

    def test_full_shift_representation(self, hamming7_full):
        census = lp_pseudocodewords(hamming7_full)
        assert len(census.vertex_set) == 16
        assert len(census.non_codeword) == 0

    def test_single_check(self):
        census = lp_pseudocodewords(BinaryMatrix.from_rows([[1, 1, 1]]))
        assert len(census.non_codeword) == 0


class TestCompositionProperties:
    def test_product_of_vertex_sets(self):
        # Vertices of the block-diagonal system are exactly the pairs.
        H1 = BinaryMatrix.from_rows([[1, 1, 1]])
        H2 = BinaryMatrix.from_rows([[1, 1, 1]])
        from conedec.constructions import direct_sum

        vs1 = enumerate_vertices(build_relaxed_polytope(H1))
        vs2 = enumerate_vertices(build_relaxed_polytope(H2))
        vs = enumerate_vertices(build_relaxed_polytope(direct_sum(H1, H2)))
        pairs = {u + v for u in vs1.vertices for v in vs2.vertices}
        assert set(vs.vertices) == pairs

    def test_vertices_lie_in_fundamental_cone(self, hamming7):
        K = build_fundamental_cone(hamming7)
        vs = enumerate_vertices(build_relaxed_polytope(hamming7))
        for v in vs.vertices:
            assert K.contains(v)

    def test_qc_vertex_set_closed_under_shift(self, hamming7_full):
        vs = enumerate_vertices(build_relaxed_polytope(hamming7_full))
        vset = set(vs.vertices)
        for v in vset:
            assert cyclic_shift(v, 1) in vset
