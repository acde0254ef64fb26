"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line with its runtime.  All numeric claims are exact (rational
arithmetic, zero tolerance); the time budgets are part of the criteria.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conedec import (
    BinaryMatrix,
    BinaryVector,
    add_qc_shifts,
    blockrow_embed,
    bsc_sample,
    build_fundamental_cone,
    build_relaxed_polytope,
    cyclic_shift,
    enumerate_codewords,
    enumerate_pseudocodewords,
    enumerate_vertices,
    extreme_rays,
    generating_function,
    genfun_product,
    genfun_restrict,
    is_gc_pseudocodeword,
    is_quasi_cyclic,
    llr_bsc,
    lp_decode,
    mat_vec_mod2,
    ml_decode,
    repeated_block_membership,
    shift_equivariance_experiment,
)
from conedec.cone import augment_column_lift
from conedec.gf2 import block_matrix
from conedec.constructions import (
    HAGIWARA_BLOCK_SIZE,
    HAGIWARA_EXPONENTS_C,
    HAGIWARA_EXPONENTS_D,
    ExponentMatrix,
    blockcirculant_from_circulant,
    circulant_permutation,
    hagiwara_css_label_matrix,
    hamming_matrix,
    qc_from_exponents,
    sc_ldpc,
    steane_matrix,
)

from conftest import MEMBER, NONMEMBER, random_matrix
from reference_cone import intersect_cones, product_cone
from reference_lpdecode import rationalize


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL  {name}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {status}  {name}  ({elapsed:.2f}s / {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name}: {elapsed:.2f}s exceeded {budget_s}s"


def hamming7():
    return hamming_matrix(3, cyclic=True)


def test_hamming_cone_rays():
    with criterion("Hamming cone: 42 extreme rays", 5):
        rays = extreme_rays(build_fundamental_cone(hamming7()))
        assert len(rays) == 42


def test_hamming_polytope_vertices():
    with criterion("Hamming relaxed polytope: 96 vertices, 16 integral", 30):
        H = hamming7()
        vs = enumerate_vertices(build_relaxed_polytope(H))
        assert len(vs) == 96
        integral = {
            tuple(int(x) for x in v)
            for v, flag in zip(vs.vertices, vs.integral)
            if flag
        }
        assert len(integral) == 16
        assert integral == {c.to_tuple() for c in enumerate_codewords(H)}


def test_hamming_15_11_cone_rays():
    with criterion("Hamming [15,11] cone: 3440 extreme rays", 2):
        rays = extreme_rays(build_fundamental_cone(hamming_matrix(4)))
        assert len(rays) == 3440


def test_sc_ldpc_polytope_vertices():
    with criterion("terminated SC L=4 polytope: 548 vertices", 4):
        H0 = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        H1 = BinaryMatrix.from_rows([[1, 0, 1], [1, 1, 0]])
        H = sc_ldpc([H0, H1], L=4, mode="terminated")
        vs = enumerate_vertices(build_relaxed_polytope(H))
        assert len(vs) == 548
        integral = {
            tuple(int(x) for x in v)
            for v, flag in zip(vs.vertices, vs.integral)
            if flag
        }
        assert integral == {c.to_tuple() for c in enumerate_codewords(H)}


def test_steane_pseudocodeword_count():
    with criterion("Steane product: 96^2 = 9216 LP pseudocodewords", 10):
        H = hamming7()
        vs = enumerate_vertices(build_relaxed_polytope(H)).vertices
        assert len(vs) * len(vs) == 9216
        P = build_relaxed_polytope(steane_matrix(3))
        rng = random.Random(2024)
        for _ in range(1000):
            u = rng.choice(vs)
            v = rng.choice(vs)
            assert P.contains(u + v)


def test_membership_anchors():
    with criterion("cone membership anchors", 5):
        K = build_fundamental_cone(hamming7())
        assert K.contains(MEMBER)
        assert not K.contains(NONMEMBER)


def test_redundant_row_endpoint():
    with criterion("7-row representation: 16 vertices, all codewords", 30):
        H = hamming7()
        H7 = add_qc_shifts(H, H.row(0), 1)
        assert H7.rows == 7
        vs = enumerate_vertices(build_relaxed_polytope(H7))
        assert len(vs) == 16
        assert all(vs.integral)
        assert {tuple(int(x) for x in v) for v in vs.vertices} == {
            c.to_tuple() for c in enumerate_codewords(H)
        }


def test_composition_property_suites():
    with criterion("block composition property suites", 300):
        rng = random.Random(31337)
        H = hamming7()
        K = build_fundamental_cone(H)

        # Row-splitting: membership in the intersection of single-row cones
        # equals membership in the whole cone, on exact random rationals.
        small = random_matrix(rng, 3, 6)
        K_whole = build_fundamental_cone(small)
        K_split = intersect_cones(
            [
                build_fundamental_cone(BinaryMatrix(1, 6, [b]))
                for b in small.row_bits
            ]
        )
        for _ in range(1000):
            v = tuple(
                Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(6)
            )
            assert K_split.contains(v) == K_whole.contains(v)

        # Block-diagonal composition, all four faces of it:
        S = steane_matrix(3)
        # (1) relaxed polytope membership factors:
        P_S = build_relaxed_polytope(S)
        P_H = build_relaxed_polytope(H)
        # (2) cone membership factors:
        K_S = build_fundamental_cone(S)
        K_prod = product_cone([K, K])
        for _ in range(1000):
            v = tuple(
                Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(14)
            )
            assert K_S.contains(v) == K_prod.contains(v)
            assert K_S.contains(v) == (K.contains(v[:7]) and K.contains(v[7:]))
            x = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(14))
            assert P_S.contains(x) == (P_H.contains(x[:7]) and P_H.contains(x[7:]))
        # Exact vertex product on small factors:
        spc = BinaryMatrix.from_rows([[1, 1, 1]])
        from conedec.constructions import direct_sum

        vs1 = enumerate_vertices(build_relaxed_polytope(spc)).vertices
        vs_d = enumerate_vertices(build_relaxed_polytope(direct_sum(spc, spc))).vertices
        assert set(vs_d) == {a + b for a in vs1 for b in vs1}
        # (3) pseudocodeword sets factor at B=1:
        pc_H = [p.coords for p in enumerate_pseudocodewords(H, 1)]
        pc_S = {p.coords for p in enumerate_pseudocodewords(S, 1)}
        assert pc_S == {a + b for a in pc_H for b in pc_H}
        # (4) generating functions multiply at B=1:
        f_H = generating_function(H, 1)
        assert generating_function(S, 1) == genfun_product([f_H, f_H])

        # Side-by-side blocks: concatenation embeds, restriction recovers.
        rays = extreme_rays(K).rays
        for _ in range(200):
            vs = []
            for _ in range(2):
                v = [Fraction(0)] * 7
                for r in rays:
                    if rng.random() < 0.2:
                        c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
                        v = [x + c * y for x, y in zip(v, r)]
                vs.append(tuple(v))
            w, certified = blockrow_embed(vs, [H, H])
            assert certified
        doubled = BinaryMatrix(3, 14, [b | (b << 7) for b in H.row_bits])
        pc_doubled = {p.coords for p in enumerate_pseudocodewords(doubled, 1)}
        assert {a + b for a in pc_H for b in pc_H} <= pc_doubled
        f2 = generating_function(doubled, 1).with_blocks((7, 7))
        assert genfun_restrict(f2, 0) == f_H
        assert genfun_restrict(f2, 1) == f_H

        # Repeated blocks: every valid sandwich split is certified by the
        # direct membership check inside the call.
        vv = tuple(Fraction(x) for x in MEMBER)
        for _ in range(200):
            t = rng.randint(1, 3)
            w = [[Fraction(0)] * 7 for _ in range(t)]
            for i in range(7):
                full = rng.randrange(t)
                for k in range(t):
                    w[k][i] = (
                        vv[i]
                        if k == full
                        else vv[i] * Fraction(rng.randint(0, 2), 2)
                    )
            flat = tuple(w[k][i] for k in range(t) for i in range(7))
            assert repeated_block_membership(H, MEMBER, flat, t)

        # Column augmentation: slack below every touched row dot lifts the
        # vector into the augmented cone, confirmed directly.
        row_dots = [sum(vv[i] for i in H.row_support(j)) for j in range(3)]
        for _ in range(200):
            bits = rng.randint(1, 7)
            s = BinaryVector(3, bits)
            wmax = min(row_dots[j] for j in s.support())
            wslack = wmax * Fraction(rng.randint(0, 4), 4)
            assert augment_column_lift(H, s, MEMBER, wslack)
        # ... and the containment is proper: the 8-coordinate witness lives
        # in the augmented cone though its prefix is outside the base cone.
        aug = BinaryMatrix(3, 8, [b | (s << 7) for b, s in zip(H.row_bits, (0, 1, 0))])
        witness = (2, 0, 0, 2, 1, 0, 1, 2)
        assert build_fundamental_cone(aug).contains(witness)
        assert not K.contains(witness[:7])

        # Box enumeration equals the naive lattice check everywhere.
        for _ in range(25):
            M = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 6))
            B = rng.randint(1, 3)
            got = {p.coords for p in enumerate_pseudocodewords(M, B)}
            KM = build_fundamental_cone(M)
            naive = {
                v
                for v in itertools.product(range(B + 1), repeat=M.cols)
                if not any(mat_vec_mod2(M, v)) and KM.contains(v)
            }
            assert got == naive


def test_qc_invariance():
    with criterion("quasi-cyclic shift invariance of decoding", 120):
        H = hamming7()
        H7 = add_qc_shifts(H, H.row(0), 1)
        assert is_quasi_cyclic(H7, 1)

        vs = enumerate_vertices(build_relaxed_polytope(H7))
        vset = set(vs.vertices)
        assert len(vset) == 16
        for v in vset:
            assert cyclic_shift(v, 1) in vset

        zero = BinaryVector(7, 0)
        errors = [bsc_sample(zero, 0.05, 60000 + t) for t in range(500)]
        report = shift_equivariance_experiment(H7, 1, errors, 0.05)
        assert report.ok, f"violations at orbits {report.violations}"
        checked = sum(
            1 for r in report.orbits if r.outputs_shift_consistent is True
        )
        print(
            f"    [{checked} tie-free orbits equivariant, "
            f"{report.tie_orbits} tie orbits reported separately]"
        )
        assert checked + report.tie_orbits == 500


def test_lp_ml_consistency():
    with criterion("integral LP output equals ML output", 60):
        H = hamming7()
        zero = BinaryVector(7, 0)
        integral_hits = 0
        for t in range(1000):
            e = bsc_sample(zero, 0.1, 90000 + t)
            gamma = llr_bsc(e, 0.1)
            res = lp_decode(H, gamma)
            gr = rationalize(gamma)
            ml = ml_decode(H, gamma)
            ml_cost = sum(g for g, b in zip(gr, ml) if b)
            assert res.objective <= ml_cost
            if res.status == "codeword":
                integral_hits += 1
                assert res.as_binary() == ml
        assert integral_hits > 0
        print(f"    [{integral_hits}/1000 integral decodes, all matched ML]")


def test_hagiwara_lp_decode_weight_6():
    G = hagiwara_css_label_matrix()
    rng = random.Random(2026)
    errors = [
        BinaryVector(G.cols, sum(1 << i for i in rng.sample(range(G.cols), 6)))
        for _ in range(4)
    ]
    with criterion("Hagiwara LP decode, weight 6", 4):
        results = [lp_decode(G, llr_bsc(e, 0.03)) for e in errors]
    P = build_relaxed_polytope(G)
    for res in results:
        assert res.objective <= 0  # the zero codeword is feasible
        # Exact membership, with the optimum scaled to integers.
        den = math.lcm(*(x.denominator for x in res.optimum))
        y = [int(x * den) for x in res.optimum]
        assert all(sum(map(int.__mul__, a, y)) <= b * den for a, b in P.inequalities)
    print(f"    [statuses: {', '.join(res.status for res in results)}]")


def test_hagiwara_lp_at_most_ml():
    # k = 46: ML decoding walks the syndrome trellis, which peaks at 2^16
    # states; the 2^46 codewords are far over the sweep's cap.
    G = hagiwara_css_label_matrix()
    rng = random.Random(4646)
    errors = [
        BinaryVector(G.cols, sum(1 << i for i in rng.sample(range(G.cols), w)))
        for w in (3, 5)
    ]
    with criterion("Hagiwara LP objective <= ML cost", 10):
        pairs = [
            (lp_decode(G, gamma), ml_decode(G, gamma), rationalize(gamma))
            for gamma in (llr_bsc(e, 0.03) for e in errors)
        ]
    for res, ml, gr in pairs:
        assert not any(mat_vec_mod2(G, ml.to_tuple()))
        ml_cost = sum(g for g, b in zip(gr, ml) if b)
        assert res.objective <= ml_cost
        assert res.status == "codeword"
        assert res.as_binary() == ml


def test_hagiwara_qc_css_build():
    with criterion("Hagiwara-Imai quasi-cyclic CSS build", 60):
        t = HAGIWARA_BLOCK_SIZE
        mats = []
        for exps in (HAGIWARA_EXPONENTS_C, HAGIWARA_EXPONENTS_D):
            M = qc_from_exponents(ExponentMatrix.from_rows(exps, t))
            assert (M.rows, M.cols) == (21, 42)
            assert all(M.row(j).weight() == 6 for j in range(21))
            MT = M.transpose()
            assert all(MT.row(i).weight() == 3 for i in range(42))
            mats.append(M)

        G = hagiwara_css_label_matrix()
        assert (G.rows, G.cols) == (42, 84)
        B = blockcirculant_from_circulant(G, c=6, n0=12, t=t)
        assert is_quasi_cyclic(B, 12)

        # Per-column intersection cones: each block is a permutation, whose
        # cone is the origin alone, so the per-column members are all zero;
        # the product-of-intersections containment is still checked exactly.
        K_whole = build_fundamental_cone(G)
        col_rays = []
        for exps in (HAGIWARA_EXPONENTS_C, HAGIWARA_EXPONENTS_D):
            for col in range(6):
                blocks = [circulant_permutation(t, exps[row][col]) for row in range(3)]
                K_col = build_fundamental_cone(block_matrix([[P] for P in blocks]))
                rays = extreme_rays(K_col).rays
                assert rays == extreme_rays(
                    intersect_cones([build_fundamental_cone(P) for P in blocks])
                ).rays
                col_rays.append(rays)
        rng = random.Random(404)
        for _ in range(100):
            w = []
            for rays in col_rays:
                v = [Fraction(0)] * t
                for r in rays:
                    c = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                    v = [x + c * y for x, y in zip(v, r)]
                w.extend(v)
            assert K_whole.contains(w)
            assert is_gc_pseudocodeword(G, [int(x) for x in w])


def test_sc_ldpc_containment():
    with criterion("spatially-coupled containment (both modes)", 10):
        H0 = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        H1 = BinaryMatrix.from_rows([[1, 0, 1], [1, 1, 0]])
        K_int = build_fundamental_cone(block_matrix([[H0], [H1]]))
        rays = extreme_rays(K_int).rays
        assert rays == extreme_rays(
            intersect_cones([build_fundamental_cone(H0), build_fundamental_cone(H1)])
        ).rays
        assert rays, "toy blocks must give a nontrivial intersection cone"
        rng = random.Random(808)
        for mode in ("terminated", "tailbiting"):
            H = sc_ldpc([H0, H1], L=3, mode=mode)
            K = build_fundamental_cone(H)
            for _ in range(200):
                w = []
                for _ in range(3):
                    v = [Fraction(0)] * 3
                    for r in rays:
                        c = Fraction(rng.randint(0, 4), rng.randint(1, 3))
                        v = [x + c * y for x, y in zip(v, r)]
                    w.extend(v)
                assert K.contains(w)
