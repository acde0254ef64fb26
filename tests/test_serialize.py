import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conedec import (
    BinaryMatrix,
    ConeSystem,
    GenFun,
    PolytopeSystem,
    RayList,
    VertexSet,
    build_fundamental_cone,
    build_relaxed_polytope,
    enumerate_vertices,
    extreme_rays,
    generating_function,
)
from conedec import serialize as ser

MISSING = object()  # a key the malformed object leaves out


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


@pytest.mark.parametrize("obj", [
    {"type": "rays", "dim": 2, "rays": [["1/2", "1"]]},
    {"type": "rays", "dim": 2, "rays": [["1", "1"], ["1"]]},
    {"type": "rays", "dim": 2, "rays": [["1", "0", "1"]]},
    {"type": "rays", "dim": 2, "rays": 5},
    {"type": "rays", "dim": 2, "rays": [[1, 0]]},
    {"type": "rays", "dim": 0, "rays": []},
    {"type": "rays", "dim": True, "rays": [["1"]]},
    [["1", "0"]],
    {"type": "rays", "dim": 2, "rays": [["-1", "0"]]},
    {"type": "rays", "dim": 2, "rays": [["2", "0"]]},
    {"type": "rays", "dim": 2, "rays": [["0", "0"]]},
    {"type": "rays", "dim": 2, "rays": [["1", "0"], ["2", "4"]]},
], ids=["fractional", "short", "long", "rays-not-list", "int-entries", "dim-zero",
        "bool-dim", "not-object", "negative", "not-primitive", "zero-ray",
        "second-not-primitive"])
def test_rays_from_obj_rejects_malformed(obj):
    with pytest.raises(ValueError):
        ser.rays_from_obj(obj)


@pytest.mark.parametrize("obj", [
    {"type": "cone", "dim": 2, "inequalities": [None]},
    {"type": "cone", "dim": "2", "inequalities": [["1", "0"]]},
    [["1", "0"]],
    {"type": "cone", "dim": 2, "inequalities": [[1.5, 0]]},
    {"type": "cone", "dim": 2, "inequalities": [["1"]]},
    {"type": "cone", "dim": 2, "inequalities": [["1/0", "1"]]},
], ids=["null-row", "string-dim", "not-object", "float-entries", "short", "zero-denominator"])
def test_cone_from_obj_rejects_malformed(obj):
    ser.cone_from_obj({"type": "cone", "dim": 2, "inequalities": [["1", "0"]]})
    with pytest.raises(ValueError):
        ser.cone_from_obj(obj)


@pytest.mark.parametrize("change", [
    {"terms": [{"exp": [0.5], "coef": 1}]},
    {"terms": [{"exp": [True], "coef": 1}]},
    {"terms": [{"exp": [1], "coef": True}]},
    {"terms": [{"exp": [1], "coef": 1.0}]},
    {"terms": [{"exp": [1], "coef": 1}, {"exp": [1], "coef": 2}]},
    {"vars": True},
    {"bound": 2.5},
    {"blocks": [True]},
    {"terms": [{"exp": 3, "coef": 1}]},
    {"terms": MISSING},
    {"terms": [[1]]},
    {"blocks": 1},
    {"bound": MISSING},
    {"bound": -3},
], ids=[
    "float-exp", "bool-exp", "bool-coef", "float-coef", "repeated-exp",
    "bool-vars", "float-bound", "bool-block", "int-exp", "no-terms",
    "list-term", "int-blocks", "no-bound", "negative-bound",
])
def test_genfun_from_obj_rejects_malformed(change):
    obj = {"type": "genfun", "vars": 1, "bound": 2, "terms": [{"exp": [1], "coef": 1}]}
    ser.genfun_from_obj(obj)
    bad = {k: v for k, v in {**obj, **change}.items() if v is not MISSING}
    with pytest.raises(ValueError):
        ser.genfun_from_obj(bad)


@pytest.mark.parametrize("vertices", [
    [["0", "1"], ["1"]], [["0", "1", "1/2"]], [3], [["1/0", "1"]], [[0.5, "1"]],
], ids=["short", "long", "int-vertex", "zero-denominator", "float-entry"])
def test_vertices_from_obj_rejects_wrong_length(vertices):
    with pytest.raises(ValueError):
        ser.vertices_from_obj({"type": "vertices", "dim": 2, "vertices": vertices})


@pytest.mark.parametrize("row", [
    {"coeffs": ["1"], "bound": "1"},
    {"coeffs": ["1", "0", "1"], "bound": "1"},
    {"coeffs": ["1", "1"]},
    {"coeffs": ["1", "1"], "bound": 1},
    ["1", "1"],
], ids=["short", "long", "no-bound", "int-bound", "not-object"])
def test_polytope_from_obj_rejects_wrong_length(row):
    obj = {
        "type": "polytope",
        "dim": 2,
        "inequalities": [{"coeffs": ["1", "1"], "bound": "1"}, row],
    }
    with pytest.raises(ValueError):
        ser.polytope_from_obj(obj)


def json_trip(obj):
    return json.loads(json.dumps(obj))


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.fractions(),
        st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_frac_str_matches_fraction_path(x):
    # The int fast path writes what the Fraction path writes; bool, float
    # and Fraction go through Fraction.
    f = Fraction(x)
    want = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    assert ser.frac_str(x) == want


@st.composite
def small_matrices(draw, max_cols=5):
    """Random H with empty, weight-1 and repeated rows."""
    n = draw(st.integers(1, max_cols))
    row = st.one_of(
        st.just(0),
        st.integers(0, n - 1).map(lambda i: 1 << i),
        st.integers(0, (1 << n) - 1),
    )
    rows = draw(st.lists(row, min_size=1, max_size=4))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return BinaryMatrix(len(rows), n, rows)


RATIONALS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12).filter(lambda q: abs(q) <= 10**12),
)


def vectors(dim, entries=RATIONALS):
    return st.lists(entries, min_size=dim, max_size=dim).map(tuple)


@st.composite
def dims_and_vectors(draw, entries=RATIONALS, max_size=6):
    dim = draw(st.integers(1, 6))
    return dim, draw(st.lists(vectors(dim, entries), max_size=max_size))


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrices().map(build_fundamental_cone),
                 dims_and_vectors().map(lambda t: ConeSystem.from_rows(*t))))
def test_cone_json_round_trip(K):
    assert ser.cone_from_obj(json_trip(ser.cone_to_obj(K))) == K


def primitive_rays(t) -> RayList:
    """The nonzero vectors of (dim, vectors), each divided by its gcd."""
    dim, vs = t
    return RayList(dim, tuple(tuple(x // math.gcd(*v) for x in v) for v in vs if any(v)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    small_matrices().map(lambda H: extreme_rays(build_fundamental_cone(H))),
    dims_and_vectors(st.integers(0, 10**30)).map(primitive_rays),
))
def test_rays_json_round_trip(R):
    back = ser.rays_from_obj(json_trip(ser.rays_to_obj(R)))
    assert back == R
    assert all(type(x) is int for r in back.rays for x in r)


@st.composite
def polytope_systems(draw):
    dim, coeffs = draw(dims_and_vectors())
    bounds = draw(st.lists(RATIONALS, min_size=len(coeffs), max_size=len(coeffs)))
    try:
        return PolytopeSystem.from_rows(dim, list(zip(coeffs, bounds)))
    except ValueError:  # a zero row with a negative bound
        assume(False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrices().map(build_relaxed_polytope), polytope_systems()))
def test_polytope_json_round_trip(P):
    assert ser.polytope_from_obj(json_trip(ser.polytope_to_obj(P))) == P


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    small_matrices(max_cols=4).map(lambda H: enumerate_vertices(build_relaxed_polytope(H))),
    dims_and_vectors().map(lambda t: VertexSet(t[0], tuple(t[1]))),
))
def test_vertices_json_round_trip(V):
    obj = json_trip(ser.vertices_to_obj(V))
    back = ser.vertices_from_obj(obj)
    assert back == V
    assert obj["integral"] == list(V.integral) == list(back.integral)


@st.composite
def genfuns(draw):
    if draw(st.booleans()):
        H = draw(small_matrices(max_cols=4))
        f = generating_function(H, draw(st.integers(0, 2)))
    else:
        n, bound = draw(st.integers(1, 5)), draw(st.integers(0, 3))
        exps = st.lists(st.integers(0, bound), min_size=n, max_size=n).map(tuple)
        terms = draw(st.dictionaries(exps, st.integers(1, 10**20), max_size=8))
        f = GenFun(n, bound, terms)
    if draw(st.booleans()):
        cut = draw(st.integers(0, f.num_vars))
        f = f.with_blocks([b for b in (cut, f.num_vars - cut) if b])
    return f


@settings(max_examples=200, deadline=None)
@given(genfuns())
def test_genfun_json_round_trip(f):
    back = ser.genfun_from_obj(json_trip(ser.genfun_to_obj(f)))
    assert back == f and back.blocks == f.blocks
    assert back.terms == f.terms
