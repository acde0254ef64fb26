import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conedec import (
    BinaryMatrix,
    GenFun,
    RayList,
    VertexSet,
    build_fundamental_cone,
    build_relaxed_polytope,
    enumerate_vertices,
    extreme_rays,
    generating_function,
)
from conedec import serialize as ser

from reference_cone import cone_from_rows


def written(obj) -> dict:
    """A writer's object as read back from its JSON text."""
    obj = json.loads(json.dumps(obj))
    assert obj["schema"] == ser.SCHEMA
    return obj


def exact(v) -> tuple[Fraction, ...]:
    """A written vector: canonical "p" or "p/q" strings, read with Fraction."""
    assert all(type(x) is str and str(Fraction(x)) == x for x in v), v
    return tuple(map(Fraction, v))


def assert_cone_written_exactly(K):
    obj = written(ser.cone_to_obj(K))
    assert (obj["type"], obj["dim"]) == ("cone", K.dim)
    assert obj["inequality_count"] == len(K.inequalities)
    assert tuple(map(exact, obj["inequalities"])) == K.inequalities


def assert_rays_written_exactly(R):
    obj = written(ser.rays_to_obj(R))
    assert (obj["type"], obj["dim"], obj["ray_count"]) == ("rays", R.dim, len(R.rays))
    rays = tuple(map(exact, obj["rays"]))
    assert rays == R.rays
    assert all(x.denominator == 1 for r in rays for x in r)
    return obj


def assert_vertices_written_exactly(V):
    obj = written(ser.vertices_to_obj(V))
    assert (obj["type"], obj["dim"], obj["total"]) == ("vertices", V.dim, len(V))
    assert tuple(map(exact, obj["vertices"])) == V.vertices
    assert obj["integral"] == list(V.integral)
    assert obj["integral_count"] == sum(V.integral)
    assert obj["fractional_count"] == len(V) - sum(V.integral)
    return obj


def assert_genfun_written_exactly(f):
    obj = written(ser.genfun_to_obj(f))
    assert (obj["type"], obj["vars"], obj["bound"]) == ("genfun", f.num_vars, f.bound)
    exps = [t["exp"] for t in obj["terms"]]
    assert exps == sorted(exps)
    assert {tuple(t["exp"]): t["coef"] for t in obj["terms"]} == f.terms
    assert len(exps) == len(f.terms)
    assert obj.get("blocks", "absent") == ("absent" if f.blocks is None else list(f.blocks))


def test_fraction_strings():
    assert ser.frac_str(Fraction(3, 4)) == "3/4"
    assert ser.frac_str(Fraction(-3, 4)) == "-3/4"
    assert ser.frac_str(Fraction(5)) == "5"
    for x in (Fraction(0), Fraction(-7, 3), Fraction(22, 7)):
        assert Fraction(ser.frac_str(x)) == x


def test_cone_round_trip(hamming7):
    assert_cone_written_exactly(build_fundamental_cone(hamming7))


def test_rays_round_trip(hamming7):
    obj = assert_rays_written_exactly(extreme_rays(build_fundamental_cone(hamming7)))
    assert obj["ray_count"] == 42


def test_vertices_round_trip(hamming7):
    obj = assert_vertices_written_exactly(enumerate_vertices(build_relaxed_polytope(hamming7)))
    assert obj["total"] == 96
    assert obj["integral_count"] == 16


def test_vertices_csv_marked_lossy(hamming7):
    V = enumerate_vertices(build_relaxed_polytope(hamming7))
    csv = ser.vertices_to_csv(V)
    lines = csv.splitlines()
    assert lines[0].startswith("#") and "lossy" in lines[0]
    assert len(lines) == 2 + 96


def test_genfun_round_trip(hamming7):
    assert_genfun_written_exactly(generating_function(hamming7, 1).with_blocks((7,)))


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
                 dims_and_vectors().map(lambda t: cone_from_rows(*t))))
def test_cone_json_round_trip(K):
    assert_cone_written_exactly(K)


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
    assert_rays_written_exactly(R)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    small_matrices(max_cols=4).map(lambda H: enumerate_vertices(build_relaxed_polytope(H))),
    dims_and_vectors().map(lambda t: VertexSet(t[0], tuple(t[1]))),
))
def test_vertices_json_round_trip(V):
    assert_vertices_written_exactly(V)


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
    assert_genfun_written_exactly(f)
