"""Every frozen record against its stdlib twin.

`conedec.record.record` stands in for `@dataclass(frozen=True)`.  The twin
of a record is that stdlib class, built from the record's own fields, field
flags, `__post_init__`, `__qualname__` and docstring; it is the reference
path.  Each test checks a record and its twin on real instances.  The last
test imports conedec in a fresh interpreter and checks that no dataclass
code is generated at import.
"""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import (
    FrozenInstanceError, asdict, dataclass, field, fields, is_dataclass, replace,
)
from pathlib import Path

import pytest

from conedec.cone import ConeSystem, RayList, build_fundamental_cone, extreme_rays
from conedec.constructions import ExponentMatrix, PauliString
from conedec.errors import BoundExceeded
from conedec.gf2 import BinaryMatrix, BinaryVector
from conedec.lpdecode import (
    DecodeResult, OrbitRecord, ShiftReport, llr_bsc, lp_decode, shift_equivariance_experiment,
)
from conedec.pcw import (
    GenFun, Pseudocodeword, enumerate_pseudocodewords, generating_function, genfun_product,
)
from conedec.polytope import (
    ROW_WEIGHT_CAP, PolytopeSystem, PseudocodewordCensus, VertexSet, build_relaxed_polytope,
    lp_pseudocodewords,
)
from conedec.qcimprove import (
    ImprovementReport, ImproveTarget, Iteration, PerformanceEstimate, evaluate_lp_performance,
    improve_representation,
)
from conedec.record import record
from conedec.simplex import ExactSimplex, SimplexResult

ROOT = Path(__file__).resolve().parent.parent

RECORDS = (
    ConeSystem, RayList, ExponentMatrix, PauliString, DecodeResult, OrbitRecord, ShiftReport,
    GenFun, Pseudocodeword, PolytopeSystem, PseudocodewordCensus, VertexSet, ImprovementReport,
    ImproveTarget, Iteration, PerformanceEstimate, SimplexResult,
)


def stdlib_twin(cls):
    ns = {
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
        "__doc__": cls.__doc__,
        "__annotations__": {f.name: f.type for f in fields(cls)},
    }
    for f in fields(cls):
        ns[f.name] = field(default=f.default, repr=f.repr, hash=f.hash, compare=f.compare)
    if "__post_init__" in vars(cls):
        ns["__post_init__"] = cls.__post_init__
    return dataclass(frozen=True)(type(cls.__name__, (), ns))


TWINS = {cls: stdlib_twin(cls) for cls in RECORDS}


def twin(obj):
    return TWINS[type(obj)](*[getattr(obj, f.name) for f in fields(obj)])


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", fn(*args, **kwargs)
    except Exception as e:
        return type(e), str(e)


@pytest.fixture(scope="module")
def instances(hamming7, hamming7_full):
    """Real instances of every record, at least two per class where the
    library makes more than one."""
    K = build_fundamental_cone(hamming7)
    P = build_relaxed_polytope(hamming7)
    census = lp_pseudocodewords(hamming7)
    g = generating_function(hamming7, 1)
    errors = [BinaryVector.from_bits([1, 1, 0, 0, 0, 0, 0]), BinaryVector.from_bits([0] * 7)]
    shifts = shift_equivariance_experiment(hamming7_full, 1, errors, 0.1)
    improved = improve_representation(hamming7, 1, ImproveTarget(max_noncw_vertices=0), budget=1)
    objs = [
        K, build_fundamental_cone(hamming7), extreme_rays(K),
        ExponentMatrix.from_rows([[0, 1], [2, 0]], 3), ExponentMatrix.from_rows([[1]], 2),
        PauliString("XZZXI"), PauliString("IY"),
        *(lp_decode(hamming7, llr_bsc(e, 0.1)) for e in errors),
        lp_decode(hamming7, [-1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
        shifts, *shifts.orbits,
        g, replace(g, blocks=(7,)), genfun_product([g, g]),
        *enumerate_pseudocodewords(hamming7, 1)[:2],
        P, PolytopeSystem(hamming7), census, census.vertex_set, VertexSet(1, ()),
        improved, *improved.iterations,
        ImproveTarget(max_noncw_vertices=0), ImproveTarget(max_fer=0.1, p=0.05),
        evaluate_lp_performance(hamming7, 0.1, 20, 1),
        evaluate_lp_performance(hamming7, 0.1, 20, 1, ml=True),
        ExactSimplex(2, [((0, 1), (1, 1))], [1], [-1, -1]).solve(),
        ExactSimplex(2, [((0, 1), (1, 1))], [1], [-1, 0]).solve(),
    ]
    by_class = {cls: [o for o in objs if type(o) is cls] for cls in RECORDS}
    assert all(by_class.values())
    return by_class


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_eq_hash_match_stdlib(cls, instances):
    for a in instances[cls]:
        assert repr(a) == repr(twin(a))
        assert outcome(hash, a) == outcome(hash, twin(a))
        assert a.__eq__(twin(a)) is NotImplemented and a.__eq__(None) is NotImplemented
        for b in instances[cls]:
            assert (a == b, a != b) == (twin(a) == twin(b), twin(a) != twin(b))


def test_genfun_blocks_and_terms_stay_out_of_hash_and_eq(instances):
    g, g7, _ = instances[GenFun]
    assert g.blocks is None and g7.blocks == (7,)
    assert g == g7 and hash(g) == hash(g7) == hash((g.num_vars, g.bound))
    assert repr(g) != repr(g7)


class Outer:
    @record
    class Node:
        """A nested record whose fields take each flag the stdlib honours."""

        items: list = field(hash=False)
        label: str = field(default="", repr=False)
        weight: int = field(default=0, compare=False)


def test_field_flags_nesting_and_self_reference_match_stdlib():
    T = stdlib_twin(Outer.Node)
    for k in (Outer.Node, T):
        a, b, c = k([1], "a", 2), k([1], "b", 2), k([1], "a", 9)
        assert (a == b, a == c, hash(a), hash(k([2], "a"))) == (False, True, hash(("a",)), hash(("a",)))
    assert repr(Outer.Node([], "x", 1)) == repr(T([], "x", 1)) == "Outer.Node(items=[], weight=1)"
    a, t = Outer.Node([]), T([])
    a.items.append(a)  # a repr that reaches itself
    t.items.append(t)
    assert repr(a) == repr(t) == "Outer.Node(items=[...], weight=0)"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_vars_keep_field_order(cls, instances):
    a = instances[cls][0]
    fresh = cls(*[getattr(a, f.name) for f in fields(cls)])
    assert list(vars(fresh)) == [f.name for f in fields(cls)] == list(vars(twin(a)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_signature_and_call_errors_match_stdlib(cls, instances):
    T = TWINS[cls]
    assert str(inspect.signature(cls)) == str(inspect.signature(T))
    values = [getattr(instances[cls][0], f.name) for f in fields(cls)]
    first = fields(cls)[0].name
    calls = [
        ((), {}),  # missing arguments
        ((*values, None), {}),  # one positional too many
        ((*values,), {"no_such_field": 1}),  # unexpected keyword
        ((*values,), {first: values[0]}),  # a value given twice
        ((), {f.name: v for f, v in zip(fields(cls), values)}),  # all by keyword
    ]
    for args, kwargs in calls:
        got, want = outcome(cls, *args, **kwargs), outcome(T, *args, **kwargs)
        if got[0] == "returned":
            assert want[0] == "returned" and repr(got[1]) == repr(want[1])
        else:
            assert got == want


@pytest.mark.parametrize("cls, args, kwargs", [
    (PauliString, ("",), {}),
    (PauliString, ("IXQ",), {}),
    (ImproveTarget, (), {}),
    (ImproveTarget, (1,), {"max_fer": 0.1}),
    (ImproveTarget, (), {"max_fer": 0.1}),
    (ImproveTarget, (-1,), {}),
    (ImproveTarget, (), {"max_fer": 2, "p": 0.1}),
    (ImproveTarget, (), {"max_fer": 0.1, "p": 1}),
    (GenFun, (2, 1, {(0,): 1}), {}),
    (GenFun, (1, 1, {(2,): 1}), {}),
    (GenFun, (1, 1, {(0,): 0}), {}),
    (PolytopeSystem, (BinaryMatrix(1, ROW_WEIGHT_CAP + 1, [(2 << ROW_WEIGHT_CAP) - 1]),), {}),
])
def test_post_init_errors_match_stdlib(cls, args, kwargs):
    got = outcome(cls, *args, **kwargs)
    assert got[0] in (ValueError, BoundExceeded)
    assert got == outcome(TWINS[cls], *args, **kwargs)


@pytest.mark.parametrize("rows, t", [([[0, 1], [2, 0]], 3), ([[0]], 0), ([], 2), ([[0, 1], [0]], 2)])
def test_exponent_matrix_from_rows_matches_stdlib(rows, t):
    got = outcome(ExponentMatrix.from_rows, rows, t)
    want = outcome(ExponentMatrix.from_rows.__func__, TWINS[ExponentMatrix], rows, t)
    assert (got[0], repr(got[1])) == (want[0], repr(want[1]))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_frozen_like_stdlib(cls, instances):
    a = instances[cls][0]
    for name in (fields(cls)[0].name, "no_such_field"):
        for obj in (a, twin(a)):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_dataclasses_api(cls, instances):
    T = TWINS[cls]
    flags = lambda k: [(f.name, f.type, f.default, f.repr, f.hash, f.compare) for f in fields(k)]
    assert is_dataclass(cls) and flags(cls) == flags(T)
    assert cls.__match_args__ == T.__match_args__
    a, b = instances[cls][0], instances[cls][-1]
    assert asdict(a) == asdict(twin(a))
    moved = replace(a, **{f.name: getattr(b, f.name) for f in fields(cls)})
    assert type(moved) is cls and moved is not b and repr(moved) == repr(b)
    assert outcome(replace, a, no_such_field=1)[0] is TypeError


GUARD = """
import dataclasses, importlib, json, pkgutil
made = []
create_fn = dataclasses._create_fn
dataclasses._create_fn = lambda name, *a, **k: made.append(name) or create_fn(name, *a, **k)
import conedec, conedec.cli, conedec.record
modules = [importlib.import_module(f"conedec.{m.name}") for m in pkgutil.iter_modules(conedec.__path__)]
records = [c for m in modules for c in vars(m).values()
           if isinstance(c, type) and c.__module__ == m.__name__ and dataclasses.is_dataclass(c)]
methods = ("__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
elsewhere = [f"{c.__name__}.{n}" for c in records for n in methods
             if getattr(c, n).__code__.co_filename != conedec.record.__file__]
print(json.dumps({"made": made, "records": len(records), "elsewhere": elsewhere}))
"""


def test_import_generates_no_dataclass_code():
    # A fresh interpreter, so that no other test's classes are counted and
    # none of these imports leak into the other tests.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", GUARD], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout) == {"made": [], "records": len(RECORDS), "elsewhere": []}
