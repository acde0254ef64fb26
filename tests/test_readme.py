"""README's examples run as documented: the Python library sketch executes,
and each recipe the command-line section quotes builds with exit 0."""

import json
import re
from pathlib import Path

import pytest

from conedec.cli import main

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
