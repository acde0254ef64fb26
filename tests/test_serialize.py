import json
from fractions import Fraction

from conedec import build_fundamental_cone, build_relaxed_polytope, enumerate_vertices, extreme_rays, generating_function
from conedec import serialize as ser


def test_fraction_strings():
    assert ser.frac_str(Fraction(3, 4)) == "3/4"
    assert ser.frac_str(Fraction(-3, 4)) == "-3/4"
    assert ser.frac_str(Fraction(5)) == "5"
    for x in (Fraction(0), Fraction(-7, 3), Fraction(22, 7)):
        assert Fraction(ser.frac_str(x)) == x


def test_cone_round_trip(hamming7):
    K = build_fundamental_cone(hamming7)
    obj = json.loads(json.dumps(ser.cone_to_obj(K)))
    assert ser.cone_from_obj(obj) == K


def test_rays_round_trip(hamming7):
    R = extreme_rays(build_fundamental_cone(hamming7))
    obj = json.loads(json.dumps(ser.rays_to_obj(R)))
    assert ser.rays_from_obj(obj) == R
    assert obj["ray_count"] == 42


def test_vertices_round_trip(hamming7):
    V = enumerate_vertices(build_relaxed_polytope(hamming7))
    obj = json.loads(json.dumps(ser.vertices_to_obj(V)))
    assert ser.vertices_from_obj(obj) == V
    assert obj["total"] == 96
    assert obj["integral_count"] == 16


def test_polytope_round_trip(hamming7):
    P = build_relaxed_polytope(hamming7)
    obj = json.loads(json.dumps(ser.polytope_to_obj(P)))
    assert ser.polytope_from_obj(obj) == P


def test_vertices_csv_marked_lossy(hamming7):
    V = enumerate_vertices(build_relaxed_polytope(hamming7))
    csv = ser.vertices_to_csv(V)
    lines = csv.splitlines()
    assert lines[0].startswith("#") and "lossy" in lines[0]
    assert len(lines) == 2 + 96


def test_genfun_round_trip(hamming7):
    f = generating_function(hamming7, 1).with_blocks((7,))
    obj = json.loads(json.dumps(ser.genfun_to_obj(f)))
    g = ser.genfun_from_obj(obj)
    assert g == f and g.blocks == (7,)
    exps = [t["exp"] for t in obj["terms"]]
    assert exps == sorted(exps)
