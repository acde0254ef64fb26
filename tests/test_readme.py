"""README's examples run as documented: the Python library sketch executes,
each recipe the command-line section quotes builds with exit 0, its
synopsis names every option, the size caps it states are the constants,
and every name its module map quotes exists."""

import argparse
import builtins
import importlib
import json
import re
from pathlib import Path

import pytest

from conedec.cli import build_parser, main
from conedec.cone import RAY_DIM_CAP
from conedec.gf2 import ENUMERATION_CAP
from conedec.pcw import BOX_BUDGET
from conedec.polytope import ROW_WEIGHT_CAP, VERTEX_DIM_CAP

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
RECIPES = re.findall(r'`(\{"kind"[^`]*\})`', README)
(MODULE_MAP,) = re.findall(r"^Module map.*?\n\n(.*?)\n\n", README, re.S | re.M)
BULLETS = re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", MODULE_MAP, re.S | re.M)


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


def test_synopsis_names_every_option():
    # The command-line synopsis quotes exactly the options the parser
    # registers, help aside.
    (synopsis,) = re.findall(r"^## Command line\n\n```\n(.*?)```", README, re.S | re.M)
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {
        flag for p in commands.choices.values() for a in p._actions
        if not isinstance(a, argparse._HelpAction) for flag in a.option_strings
    }
    assert set(re.findall(r"--[\w-]+", synopsis)) == registered


def _resolves(module, name: str) -> bool:
    """name is an attribute of module (dotted names follow attributes), an
    attribute of a class defined in module, or a builtin exception."""
    obj = module
    for part in name.split("."):
        obj = getattr(obj, part, None)
    if obj is not None:
        return True
    classes = [
        c for c in vars(module).values()
        if isinstance(c, type) and c.__module__ == module.__name__
    ]
    if any(hasattr(c, name) for c in classes):
        return True
    exc = getattr(builtins, name, None)
    return isinstance(exc, type) and issubclass(exc, BaseException)


def test_module_map_lists_modules():
    assert len(BULLETS) >= 10
    assert len({name for name, _ in BULLETS}) == len(BULLETS)


@pytest.mark.parametrize("name, text", BULLETS, ids=[name for name, _ in BULLETS])
def test_module_map_names_exist(name, text):
    module = importlib.import_module(f"conedec.{name}")
    quoted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", text)
    if name == "cli":
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        known = {"conedec", *sub.choices}
        quoted = [q for q in quoted if q not in known]
    assert [q for q in quoted if not _resolves(module, q)] == []
