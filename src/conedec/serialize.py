"""JSON/CSV views of the core objects.

Rationals travel as exact "p" or "p/q" strings (canonical: q > 0, lowest
terms), never as floats, so a JSON round trip is bit-exact.  The loaders
accept only what the writers emit and raise ValueError on anything else.
CSV exports are decimal with 12 significant digits and carry a header
comment marking them as lossy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cone import ConeSystem, RayList
from .pcw import GenFun
from .polytope import PolytopeSystem, VertexSet

SCHEMA = 1


def frac_str(x) -> str:
    if type(x) is int:  # not bool: str(True) is "True"
        return str(x)
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def vec_strs(v: Sequence) -> list[str]:
    return [frac_str(x) for x in v]


def _read(obj, kind: str, key: str, dim_key: str = "dim") -> tuple[int, list]:
    """(dim, obj[key]) of an object a loader takes: a dict of type kind whose
    dim_key is an integer >= 1 and whose key holds a list, else ValueError."""
    if type(obj) is not dict or obj.get("type") != kind:
        raise ValueError(f"not a {kind} object")
    dim, items = obj.get(dim_key), obj.get(key)
    if type(dim) is not int or dim < 1:
        raise ValueError(f"{kind} {dim_key} must be an integer >= 1")
    if type(items) is not list:
        raise ValueError(f"{kind} {key} must be a list")
    return dim, items


def _vector(v, dim: int) -> tuple[Fraction, ...]:
    """A list of dim exact "p" / "p/q" strings, parsed."""
    if type(v) is not list or len(v) != dim or any(type(x) is not str for x in v):
        raise ValueError(f"expected a list of {dim} \"p/q\" strings, got {v!r}")
    try:
        return tuple(map(Fraction, v))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None


def cone_to_obj(K: ConeSystem) -> dict:
    return {
        "schema": SCHEMA,
        "type": "cone",
        "dim": K.dim,
        "inequality_count": len(K.inequalities),
        "inequalities": [vec_strs(a) for a in K.inequalities],
    }


def cone_from_obj(obj: dict) -> ConeSystem:
    dim, rows = _read(obj, "cone", "inequalities")
    return ConeSystem.from_rows(dim, [_vector(a, dim) for a in rows])


def rays_to_obj(R: RayList) -> dict:
    return {
        "schema": SCHEMA,
        "type": "rays",
        "dim": R.dim,
        "ray_count": len(R.rays),
        "rays": [vec_strs(r) for r in R.rays],
    }


def rays_from_obj(obj: dict) -> RayList:
    dim, items = _read(obj, "rays", "rays")
    rays = [_vector(r, dim) for r in items]
    if any(x.denominator != 1 for r in rays for x in r):
        raise ValueError("each ray must have integer entries")
    return RayList(dim, tuple(tuple(x.numerator for x in r) for r in rays))


def polytope_to_obj(P: PolytopeSystem) -> dict:
    return {
        "schema": SCHEMA,
        "type": "polytope",
        "dim": P.dim,
        "inequality_count": len(P.inequalities),
        "inequalities": [
            {"coeffs": vec_strs(a), "bound": frac_str(b)} for a, b in P.inequalities
        ],
    }


def polytope_from_obj(obj: dict) -> PolytopeSystem:
    dim, rows = _read(obj, "polytope", "inequalities")
    ineqs = []
    for row in rows:
        if type(row) is not dict:
            raise ValueError("each polytope inequality must be an object")
        [bound] = _vector([row.get("bound")], 1)
        ineqs.append((_vector(row.get("coeffs"), dim), bound))
    return PolytopeSystem.from_rows(dim, ineqs)


def vertices_to_obj(V: VertexSet) -> dict:
    flags = V.integral
    return {
        "schema": SCHEMA,
        "type": "vertices",
        "dim": V.dim,
        "total": len(V),
        "integral_count": sum(flags),
        "fractional_count": len(V) - sum(flags),
        "vertices": [vec_strs(v) for v in V.vertices],
        "integral": list(flags),
    }


def vertices_from_obj(obj: dict) -> VertexSet:
    dim, verts = _read(obj, "vertices", "vertices")
    return VertexSet(dim, tuple(_vector(v, dim) for v in verts))


def vertices_to_csv(V: VertexSet) -> str:
    lines = ["# lossy decimal export (12 significant digits); use JSON for exact values"]
    lines.append(",".join(f"x{i}" for i in range(V.dim)) + ",integral")
    for v, flag in zip(V.vertices, V.integral):
        vals = ",".join(f"{float(x):.12g}" for x in v)
        lines.append(f"{vals},{int(flag)}")
    return "\n".join(lines) + "\n"


def genfun_to_obj(f: GenFun) -> dict:
    obj = {
        "schema": SCHEMA,
        "type": "genfun",
        "vars": f.num_vars,
        "bound": f.bound,
        "terms": [
            {"exp": list(e), "coef": c} for e, c in f.sorted_terms()
        ],
    }
    if f.blocks is not None:
        obj["blocks"] = list(f.blocks)
    return obj


def genfun_from_obj(obj: dict) -> GenFun:
    num_vars, items = _read(obj, "genfun", "terms", dim_key="vars")
    terms = {}
    for t in items:
        if type(t) is not dict or type(t.get("exp")) is not list:
            raise ValueError(f"genfun term {t!r} must hold an exponent list")
        exp = tuple(t["exp"])
        if any(type(x) is not int for x in (*exp, t.get("coef"))):  # not bool, not float
            raise ValueError(f"genfun term {t!r} must have integer entries")
        if exp in terms:
            raise ValueError(f"genfun exponent {list(exp)} repeats")
        terms[exp] = t["coef"]
    blocks = obj.get("blocks", [])
    if type(blocks) is not list or any(type(x) is not int for x in (obj.get("bound"), *blocks)):
        raise ValueError("genfun bound and blocks must be integers")
    return GenFun(num_vars, obj["bound"], terms, tuple(blocks) if "blocks" in obj else None)
