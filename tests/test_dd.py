"""Double description against its oracles: the scan-based adjacency test it
replaced (exact list equality) and the brute-force basis enumeration; and
integerize against the Fraction-based version it replaced."""

import logging
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedec import BinaryMatrix, build_fundamental_cone, build_relaxed_polytope, dd
from conedec.constructions import hamming_matrix, sc_ldpc
from conedec.qcimprove import add_qc_shifts
from reference_dd import basis_extreme_rays, reference_extreme_rays_int, reference_integerize

SC_BLOCKS = ([[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [1, 1, 0]])


def unit(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


@st.composite
def pointed_systems(draw, max_dim=6, max_extra=8):
    """(dim, rows): the unit rows plus random rows with entries in [-2, 2],
    with a zero row, a duplicated row or a second copy of a unit row on
    coin flips, in a random order."""
    dim = draw(st.integers(1, max_dim))
    extra = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=max_extra)
    )
    units = [unit(dim, i) for i in range(dim)]
    rows = units + extra
    if draw(st.booleans()):
        rows.append((0,) * dim)
    if extra and draw(st.booleans()):
        rows.append(draw(st.sampled_from(extra)))
    if draw(st.booleans()):
        rows.append(draw(st.sampled_from(units)))
    return dim, draw(st.permutations(rows))


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        return ("ValueError", str(e))


@settings(max_examples=300, deadline=None)
@given(pointed_systems(), st.booleans(), st.randoms(use_true_random=False))
# No unit row for coordinate 2: the error path runs on every test run.
@example((3, [(1, 0, 0), (0, 1, 0), (1, -1, 1)]), False, random.Random(0))
def test_matches_scan_reference(system, drop_unit, rng):
    dim, rows = system
    rows = list(rows)
    if drop_unit:
        # Without one coordinate's unit row both must raise the same error
        # (unless a random row happens to be a positive unit row there).
        rows.remove(unit(dim, rng.randrange(dim)))
    want = outcome(reference_extreme_rays_int, dim, rows)
    assert outcome(dd.extreme_rays_int, dim, rows) == want
    assert outcome(dd.extreme_rays_int, dim, rows, sort_rows=False) == want
    rng.shuffle(rows)
    assert outcome(dd.extreme_rays_int, dim, rows, sort_rows=False) == want


def test_missing_unit_row_error():
    rows = [(1, 0, 0), (0, 0, 1), (1, 1, -1)]
    with pytest.raises(ValueError, match=r"coordinates \[1\]"):
        dd.extreme_rays_int(3, rows)
    with pytest.raises(ValueError, match=r"coordinates \[1\]"):
        reference_extreme_rays_int(3, rows)


@settings(max_examples=100, deadline=None)
@given(pointed_systems(max_extra=6))
def test_matches_basis_oracle(system):
    dim, rows = system
    assert set(dd.extreme_rays_int(dim, rows)) == basis_extreme_rays(dim, rows)


def cone_rows(H):
    K = build_fundamental_cone(H)
    return K.dim, K.inequalities


def homogenized_rows(H):
    """The rows polytope.enumerate_vertices hands to double description."""
    P = build_relaxed_polytope(H)
    n = P.dim
    return n + 1, [(0,) * n + (1,)] + [tuple(-x for x in a) + (b,) for a, b in P.inequalities]


def hamming7():
    return hamming_matrix(3, cyclic=True)


INSTANCES = {
    "cone 3x7": lambda: cone_rows(hamming7()),
    "cone [15,11]": lambda: cone_rows(hamming_matrix(4)),
    "polytope 3x7": lambda: homogenized_rows(hamming7()),
    "polytope 7x7": lambda: homogenized_rows(add_qc_shifts(hamming7(), hamming7().row(0), 1)),
    "polytope SC L=4": lambda: homogenized_rows(
        sc_ldpc([BinaryMatrix.from_rows(b) for b in SC_BLOCKS], L=4, mode="terminated")
    ),
}


@pytest.mark.parametrize("name", INSTANCES)
def test_instances_match_reference(name):
    dim, rows = INSTANCES[name]()
    assert dd.extreme_rays_int(dim, rows) == reference_extreme_rays_int(dim, rows)


def test_debug_line(caplog):
    dim, rows = INSTANCES["cone 3x7"]()
    with caplog.at_level(logging.DEBUG, logger="conedec.dd"):
        rays = dd.extreme_rays_int(dim, rows)
    (rec,) = caplog.records
    assert rec.levelno == logging.DEBUG and rec.name == "conedec.dd"
    insertions, peak, tests, out, hits = debug_counts(rec)
    assert insertions == len(rows) - dim
    assert out == len(rays) == 42
    assert peak >= out
    assert tests >= out - dim
    assert 0 <= hits <= tests


def debug_counts(rec):
    """insertions, peak rays, adjacency tests, rays out, memo hits."""
    return tuple(int(w) for w in rec.getMessage().split() if w.isdigit())


def test_sc_polytope_counters(caplog):
    # The colex insertion order keeps the SC L=4 census at its 548 output
    # rays (the support-size order swelled to 1280), and the witness memo
    # leaves few pairs to the AND chain (133,929 chains before either).
    dim, rows = INSTANCES["polytope SC L=4"]()
    with caplog.at_level(logging.DEBUG, logger="conedec.dd"):
        dd.extreme_rays_int(dim, rows)
    (rec,) = caplog.records
    _, peak, tests, out, hits = debug_counts(rec)
    assert out == 548
    assert peak <= 600
    assert tests - hits <= 10_000


ENTRIES = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6).filter(lambda q: abs(q) <= 10**6),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(ENTRIES, max_size=12), st.booleans())
@example([], False)
@example([0, Fraction(0), 0.0], False)
@example([Fraction(-1, 3), 2, -0.5], False)
@example([True, 3], False)
def test_integerize_matches_fraction_reference(row, zero):
    # Mixed int, Fraction and float rows, zero rows and negative entries.
    if zero:
        row = [0 * x for x in row]
    got = dd.integerize(row)
    assert got == reference_integerize(row)
    assert all(type(x) is int for x in got)


def popcount_near_rays(inner, rows, t, tight):
    """near_rays by one popcount per ray: ray i passes iff it is tight on
    at least |rows| - t of the rows."""
    need = rows.bit_count() - t
    out = 0
    for i in range(inner.bit_length()):
        if inner >> i & 1:
            mask = sum(1 << r for r in range(len(tight)) if tight[r] >> i & 1)
            if (rows & mask).bit_count() >= need:
                out |= 1 << i
    return out


@st.composite
def filter_inputs(draw):
    """(inner, rows, t, tight): up to 12 rows over up to 40 ray indices, the
    rays outside `inner` standing for dead rays and for the walked side."""
    n_rays = draw(st.integers(0, 40))
    n_rows = draw(st.integers(1, 12))
    tight = draw(st.lists(st.integers(0, (1 << n_rays) - 1), min_size=n_rows, max_size=n_rows))
    inner = draw(st.integers(0, (1 << n_rays) - 1))
    rows = draw(st.integers(0, (1 << n_rows) - 1))
    t = draw(st.integers(0, rows.bit_count()))
    return inner, rows, t, tight


@settings(max_examples=500, deadline=None)
@given(filter_inputs())
@example((0b1011, 0b111, 0, [0b1111, 0b0011, 0b1001]))  # t = 0
@example((0, 0b11, 1, [0b1, 0b10]))  # empty inner side
@example((0b111, 0b111, 1, [0b101, 0, 0b111]))  # a row tight at no ray
@example((0b0101, 0b11, 0, [0b1111, 0b1110]))  # dead rays 1 and 3 in tight[]
@example((0b11, 0b11, 2, [0, 0]))  # t = |rows|: every inner ray passes
def test_near_rays_matches_popcount(args):
    inner, rows, t, tight = args
    assert dd.near_rays(inner, rows, t, tight) == popcount_near_rays(inner, rows, t, tight)


@st.composite
def parity_checks(draw, max_cols=10, max_rows=5):
    """H with up to max_rows rows over n <= max_cols columns, with a
    weight-0 row, a weight-1 row or a repeated row on coin flips."""
    n = draw(st.integers(2, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_rows))
    if draw(st.booleans()):
        rows.append(0)
    if draw(st.booleans()):
        rows.append(1 << draw(st.integers(0, n - 1)))
    if draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    return BinaryMatrix(len(rows), n, draw(st.permutations(rows)))


@pytest.mark.parametrize("ratio", [dd.FILTER_RATIO, 0], ids=["rule", "always-filter"])
@settings(max_examples=100, deadline=None)
@given(parity_checks(), st.randoms(use_true_random=False))
def test_random_cones_match_reference(ratio, H, rng):
    # Ratio 0 sends every walked ray with a nonempty inner side through
    # near_rays; the default rule mostly keeps the popcount loop here.
    dim, rows = cone_rows(H)
    rows = list(rows)
    rows.extend(rng.sample(rows, 2))  # repeated cone rows
    want = reference_extreme_rays_int(dim, rows)
    with patch.object(dd, "FILTER_RATIO", ratio):
        assert dd.extreme_rays_int(dim, rows) == want
        assert dd.extreme_rays_int(dim, rows, sort_rows=False) == want


def counting_near_rays(monkeypatch):
    """Wrap dd.near_rays; the returned list collects one entry per call."""
    calls = []
    inner_fn = dd.near_rays

    def wrapped(*args):
        calls.append(args[2])
        return inner_fn(*args)

    monkeypatch.setattr(dd, "near_rays", wrapped)
    return calls


def test_filter_path_runs_and_matches_reference(monkeypatch):
    # With ratio 0 the 3x7 cone and polytope run every candidate search
    # through the filter; the rays stay those of the scan reference.
    calls = counting_near_rays(monkeypatch)
    monkeypatch.setattr(dd, "FILTER_RATIO", 0)
    for name in ("cone 3x7", "polytope 3x7"):
        dim, rows = INSTANCES[name]()
        del calls[:]
        assert dd.extreme_rays_int(dim, rows) == reference_extreme_rays_int(dim, rows)
        assert calls


def run_counted(caplog, name):
    dim, rows = INSTANCES[name]()
    with caplog.at_level(logging.DEBUG, logger="conedec.dd"):
        dd.extreme_rays_int(dim, rows)
    (rec,) = caplog.records
    return debug_counts(rec)


# An exact filter hands the same pairs to the adjacency test, so these
# counts do not depend on how the candidates are found.  Memo hits depend
# on the pair order and are not pinned.
PINNED_TESTS = {"cone [15,11]": (3440, 15_821), "polytope SC L=4": (548, 63_588),
                "polytope 3x7": (96, 858)}


@pytest.mark.parametrize("name", PINNED_TESTS)
def test_adjacency_test_counts_pinned(caplog, monkeypatch, name):
    calls = counting_near_rays(monkeypatch)
    _, _, tests, out, _ = run_counted(caplog, name)
    assert (out, tests) == PINNED_TESTS[name]
    if name == "cone [15,11]":
        assert calls  # the late insertions go through the filter
