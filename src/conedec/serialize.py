"""JSON/CSV writers for the objects the command line outputs.

Every rational is written as an exact "p" or "p/q" string (canonical:
q > 0, lowest terms), never as a float, so Fraction reads each value back
exactly.  CSV exports are decimal with 12 significant digits and carry a
header comment marking them as lossy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cone import ConeSystem, RayList
from .pcw import GenFun
from .polytope import VertexSet

SCHEMA = 1  # the first key of every JSON output, which cli._analyze writes


def frac_str(x) -> str:
    if type(x) is int:  # not bool: str(True) is "True"
        return str(x)
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def vec_strs(v: Sequence) -> list[str]:
    return [frac_str(x) for x in v]


def cone_to_obj(K: ConeSystem) -> dict:
    return {
        "type": "cone",
        "dim": K.dim,
        "inequality_count": len(K.inequalities),
        "inequalities": [vec_strs(a) for a in K.inequalities],
    }


def rays_to_obj(R: RayList) -> dict:
    return {
        "type": "rays",
        "dim": R.dim,
        "ray_count": len(R.rays),
        "rays": [vec_strs(r) for r in R.rays],
    }


def vertices_to_obj(V: VertexSet) -> dict:
    flags = V.integral
    return {
        "type": "vertices",
        "dim": V.dim,
        "total": len(V),
        "integral_count": sum(flags),
        "fractional_count": len(V) - sum(flags),
        "vertices": [vec_strs(v) for v in V.vertices],
        "integral": list(flags),
    }


def vertices_to_csv(V: VertexSet) -> str:
    lines = ["# lossy decimal export (12 significant digits); use JSON for exact values"]
    lines.append(",".join(f"x{i}" for i in range(V.dim)) + ",integral")
    for v, flag in zip(V.vertices, V.integral):
        vals = ",".join(f"{float(x):.12g}" for x in v)
        lines.append(f"{vals},{int(flag)}")
    return "\n".join(lines) + "\n"


def genfun_to_obj(f: GenFun) -> dict:
    obj = {
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
