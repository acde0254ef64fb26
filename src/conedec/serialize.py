"""JSON/CSV views of the core objects.

Rationals travel as exact "p" or "p/q" strings (canonical: q > 0, lowest
terms), never as floats, so a JSON round trip is bit-exact.  CSV exports
are decimal with 12 significant digits and carry a header comment marking
them as lossy.
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


def parse_vec(ss: Sequence[str]) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, ss))


def cone_to_obj(K: ConeSystem) -> dict:
    return {
        "schema": SCHEMA,
        "type": "cone",
        "dim": K.dim,
        "inequality_count": len(K.inequalities),
        "inequalities": [vec_strs(a) for a in K.inequalities],
    }


def cone_from_obj(obj: dict) -> ConeSystem:
    if obj.get("type") != "cone":
        raise ValueError("not a cone object")
    return ConeSystem.from_rows(
        obj["dim"], [parse_vec(a) for a in obj["inequalities"]]
    )


def rays_to_obj(R: RayList) -> dict:
    return {
        "schema": SCHEMA,
        "type": "rays",
        "dim": R.dim,
        "ray_count": len(R.rays),
        "rays": [vec_strs(r) for r in R.rays],
    }


def rays_from_obj(obj: dict) -> RayList:
    if obj.get("type") != "rays":
        raise ValueError("not a ray list object")
    rays = tuple(tuple(int(Fraction(s)) for s in r) for r in obj["rays"])
    return RayList(obj["dim"], rays)


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
    if obj.get("type") != "polytope":
        raise ValueError("not a polytope object")
    return PolytopeSystem.from_rows(
        obj["dim"],
        [
            (parse_vec(row["coeffs"]), Fraction(row["bound"]))
            for row in obj["inequalities"]
        ],
    )


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
    if obj.get("type") != "vertices":
        raise ValueError("not a vertex set object")
    return VertexSet(obj["dim"], tuple(parse_vec(v) for v in obj["vertices"]))


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
    if obj.get("type") != "genfun":
        raise ValueError("not a genfun object")
    terms = {tuple(t["exp"]): t["coef"] for t in obj["terms"]}
    blocks = tuple(obj["blocks"]) if "blocks" in obj else None
    return GenFun(obj["vars"], obj["bound"], terms, blocks)
