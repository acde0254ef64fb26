"""README's examples run as documented: the Python library sketch executes,
each recipe the command-line section quotes builds with exit 0, and the
size caps it states are the constants."""

import json
import re
from pathlib import Path

import pytest

from conedec.cli import main
from conedec.cone import RAY_DIM_CAP
from conedec.gf2 import ENUMERATION_CAP
from conedec.pcw import BOX_BUDGET
from conedec.polytope import ROW_WEIGHT_CAP, VERTEX_DIM_CAP

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
RECIPES = re.findall(r'`(\{"kind"[^`]*\})`', README)


def test_library_sketch_runs():
    (sketch,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(sketch, "README.md", "exec"), {})


def test_readme_quotes_four_recipes():
    assert [json.loads(r)["kind"] for r in RECIPES] == [
        "steane", "qc-exponent", "sc", "hagiwara"
    ]


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda r: json.loads(r)["kind"])
def test_recipe_builds(tmp_path, capsys, recipe):
    path = tmp_path / "recipe.json"
    path.write_text(recipe)
    assert main(["build", str(path), "--out", str(tmp_path / "H.txt")]) == 0
    assert capsys.readouterr().out.startswith("built ")


def test_size_guards_match_constants():
    # Each cap is stated as "<value> ... (`module.NAME`".
    (guards,) = re.findall(r"^Size guards:(.*?)(?:\n\n|\Z)", README, re.S | re.M)
    stated = re.findall(r"(2\^\d+|\d+)[^()]*\(`\w+\.(\w+)`", " ".join(guards.split()))
    value = {
        "ENUMERATION_CAP": 2**ENUMERATION_CAP,
        "RAY_DIM_CAP": RAY_DIM_CAP,
        "VERTEX_DIM_CAP": VERTEX_DIM_CAP,
        "ROW_WEIGHT_CAP": ROW_WEIGHT_CAP,
        "BOX_BUDGET": BOX_BUDGET,
    }
    assert [name for _, name in stated] == [
        "ENUMERATION_CAP", "ENUMERATION_CAP", "RAY_DIM_CAP", "VERTEX_DIM_CAP",
        "ROW_WEIGHT_CAP", "BOX_BUDGET",
    ]
    for number, name in stated:
        base, _, exp = number.partition("^")
        assert (int(base) ** int(exp) if exp else int(base)) == value[name], name
