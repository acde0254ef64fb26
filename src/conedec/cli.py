"""Command-line surface.

Subcommands: build (matrix from a recipe file), cone (inequality census and
extreme rays), vertices (vertex census), decode (single word or seeded
Monte Carlo), genfun (truncated generating function), improve (redundant-row
loop).  Every command is deterministic given its flags.  Every command but
build returns (payload, summary) to one output path, _analyze: a dict is
written as JSON with "schema" first and the config (the command and every
option it takes, seed included) last, a string as a CSV body under a
"# config: {json}" line.

Exit codes: 0 success, 2 input error, 3 resource bound exceeded,
4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions as cons
from . import serialize as ser
from .cone import build_fundamental_cone, extreme_rays
from .errors import BoundExceeded, NumericalFailure
from .gf2 import (
    BinaryMatrix,
    BinaryVector,
    format_alist,
    format_dense,
    parse_alist,
    parse_dense,
)
from .lpdecode import (
    bsc_errors,
    llr_bsc,
    lp_decode,
    ml_decode,
    shift_equivariance_experiment,
)
from .pcw import generating_function
from .polytope import lp_pseudocodewords
from .qcimprove import ImproveTarget, evaluate_lp_performance, improve_representation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_NUMERICAL = 4


# Parsed arguments that are not options of the analysis: the input and
# output paths, the input format, and the dispatch targets.
_NOT_CONFIG = ("matrix", "out", "in_format", "func", "run")


def _config(args) -> dict:
    """The command and every option it takes, defaults included, in the
    order they are registered."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}


def read_matrix(path: str, in_format: str = "auto") -> BinaryMatrix:
    text = Path(path).read_text()
    if in_format == "auto":
        in_format = "alist" if path.endswith(".alist") else "dense"
    if in_format == "alist":
        return parse_alist(text)
    return parse_dense(text)


def _emit(payload: str, out: str | None, summary: str) -> None:
    if out:
        Path(out).write_text(payload)
        print(summary)
    else:
        sys.stdout.write(payload)


def _json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _analyze(args) -> int:
    """Read H and write what args.run(args, H) returns with its config;
    with --out, the summary line goes to stdout."""
    cfg = _config(args)
    H = read_matrix(args.matrix, args.in_format)
    payload, summary = args.run(args, H)
    if isinstance(payload, str):
        text = f"# config: {json.dumps(cfg)}\n" + payload
    else:
        text = _json({"schema": ser.SCHEMA, **payload, "config": cfg})
    _emit(text, args.out, summary)
    return EXIT_OK


# --- subcommands -----------------------------------------------------------


def cmd_build(args) -> int:
    recipe = json.loads(Path(args.recipe).read_text())
    H = build_from_recipe(recipe)
    text = format_alist(H) if args.format == "alist" else format_dense(H)
    _emit(text, args.out, f"built {H.rows}x{H.cols} matrix")
    return EXIT_OK


def build_from_recipe(recipe: dict) -> BinaryMatrix:
    if type(recipe) is not dict:
        raise ValueError("a recipe must be a JSON object")
    kind = _field(recipe, "kind", str)
    if kind == "hamming":
        return cons.hamming_matrix(
            _field(recipe, "r", int), _field(recipe, "cyclic", bool, False)
        )
    if kind == "steane":
        return cons.steane_matrix(_field(recipe, "r", int))
    if kind == "css":
        return cons.css_matrix(*[_recipe_matrix(_field(recipe, k), k) for k in ("h1", "h2")])
    if kind == "label":
        return cons.label_matrix([str(g) for g in _field(recipe, "generators", list)])
    if kind == "circulant":
        return cons.circulant_permutation(
            _field(recipe, "t", int), _field(recipe, "shift", int, 0)
        )
    if kind == "qc-exponent":
        E = cons.ExponentMatrix.from_rows(
            _int_rows(_field(recipe, "exponents"), "exponents"),
            _field(recipe, "block_size", int),
        )
        return cons.qc_from_exponents(E)
    if kind == "block-circulant":
        return cons.block_circulant(
            [_recipe_matrix(b, "blocks") for b in _field(recipe, "blocks", list)]
        )
    if kind == "sc":
        return cons.sc_ldpc(
            [_recipe_matrix(b, "blocks") for b in _field(recipe, "blocks", list)],
            _field(recipe, "L", int),
            _field(recipe, "mode", str),
        )
    if kind == "hagiwara":
        return cons.hagiwara_css_label_matrix()
    raise ValueError(f"unknown recipe kind {kind!r}")


def _field(recipe: dict, key: str, kind: type | None = None, default=None):
    """recipe[key] (or the default when the key is absent), which must be a
    JSON value of exactly the given type: a bool is not an int, a float not
    an int.  A key with no default must be present."""
    if default is None and key not in recipe:
        raise ValueError(f"recipe field {key!r} is missing")
    value = recipe.get(key, default)
    if kind is not None and type(value) is not kind:
        raise ValueError(
            f"recipe field {key!r} must be a JSON {kind.__name__}, not {value!r}"
        )
    return value


def _int_rows(rows, key: str) -> list:
    """A list of rows of JSON integers (exponents, or matrix entries)."""
    if type(rows) is not list or not all(
        type(r) is list and all(type(e) is int for e in r) for r in rows
    ):
        raise ValueError(f"recipe field {key!r} must be a list of rows of JSON integers")
    return rows


def _recipe_matrix(source, key: str) -> BinaryMatrix:
    """A matrix source: a path string or a list of rows."""
    if isinstance(source, str):
        return read_matrix(source)
    return BinaryMatrix.from_rows(_int_rows(source, key))


def cmd_cone(args, H: BinaryMatrix) -> tuple[dict, str]:
    K = build_fundamental_cone(H)
    rays = extreme_rays(K)
    obj = {**ser.cone_to_obj(K), **ser.rays_to_obj(rays), "type": "cone-census"}
    return obj, f"dim {K.dim}: {len(K.inequalities)} inequalities, {len(rays)} extreme rays"


def cmd_vertices(args, H: BinaryMatrix) -> tuple[dict | str, str]:
    census = lp_pseudocodewords(H)
    vs = census.vertex_set
    if args.format == "csv":
        return ser.vertices_to_csv(vs), f"{len(vs)} vertices"
    obj = ser.vertices_to_obj(vs)
    obj["codeword_count"] = len(census.codeword)
    obj["non_codeword_count"] = len(census.non_codeword)
    return obj, f"{len(vs)} vertices ({len(census.non_codeword)} non-codeword)"


def cmd_decode(args, H: BinaryMatrix) -> tuple[dict | str, str]:
    if (args.word is None) == (not args.random):
        raise ValueError("give exactly one of --word or --random")
    if args.orbit_n0 is not None and not args.random:
        raise ValueError("--orbit-n0 needs --random")
    if args.format == "csv" and (args.word is not None or args.orbit_n0 is not None):
        raise ValueError("--format csv is only available for --random without --orbit-n0")
    if args.ml and args.orbit_n0 is not None:
        raise ValueError("--ml is not available with --orbit-n0")
    if args.word is not None:
        return _decode_word(args, H)
    if args.orbit_n0 is not None:
        return _decode_orbits(args, H)
    return _decode_trials(args, H)


def _decode_word(args, H: BinaryMatrix) -> tuple[dict, str]:
    w = BinaryVector.from_string(args.word)
    if w.n != H.cols:
        raise ValueError(f"word length {w.n} != cols {H.cols}")
    gamma = llr_bsc(w, args.crossover)
    res = lp_decode(H, gamma)
    obj = {
        "type": "decode",
        "word": w.to01(),
        "p": args.crossover,
        "status": res.status,
        "integral": res.integral,
        "objective": ser.frac_str(res.objective),
        "optimum": ser.vec_strs(res.optimum),
    }
    if args.ml:
        obj["ml_word"] = ml_decode(H, gamma).to01()
    return obj, f"status {res.status}"


def _decode_orbits(args, H: BinaryMatrix) -> tuple[dict, str]:
    errors = list(bsc_errors(H.cols, args.crossover, args.trials, args.seed))
    rep = shift_equivariance_experiment(H, args.orbit_n0, errors, args.crossover)
    obj = {
        "type": "shift-experiment",
        "seed": args.seed,
        "p": args.crossover,
        "trials": args.trials,
        "n0": args.orbit_n0,
        "failures": sum(r.failed for r in rep.orbits),
        "fractional_count": sum(r.statuses[0] == "fractional" for r in rep.orbits),
        "tie_count": rep.tie_orbits,
        "violations": list(rep.violations),
        "per_orbit": [
            {
                "error": "".join(str(b) for b in r.error),
                "statuses": list(r.statuses),
                "status_uniform": r.status_uniform,
                "outputs_shift_consistent": r.outputs_shift_consistent,
            }
            for r in rep.orbits
        ],
    }
    return obj, f"{len(rep.violations)} violations over {args.trials} orbits"


def _decode_trials(args, H: BinaryMatrix) -> tuple[dict | str, str]:
    est = evaluate_lp_performance(H, args.crossover, args.trials, args.seed, ml=args.ml)
    summary = f"fer {est.fer:.4g}"
    if args.format == "csv":
        header = "seed,p,trials,failures,fer,fractional_count,tie_count"
        row = (
            f"{args.seed},{args.crossover},{args.trials},{est.failures},"
            f"{est.fer:.12g},{est.fractional},{est.ties}"
        )
        if args.ml:
            header += ",ml_failures,pseudocodeword_failures"
            row += f",{est.ml_failures},{est.pseudocodeword_failures}"
        return f"{header}\n{row}\n", summary
    obj = {
        "type": "decode-trials",
        "seed": args.seed,
        "p": args.crossover,
        "trials": args.trials,
        "failures": est.failures,
        "fractional_count": est.fractional,
        "tie_count": est.ties,
    }
    if args.ml:
        obj["ml_failures"] = est.ml_failures
        obj["pseudocodeword_failures"] = est.pseudocodeword_failures
    return obj, summary


def cmd_genfun(args, H: BinaryMatrix) -> tuple[dict, str]:
    f = generating_function(H, args.box_bound)
    return ser.genfun_to_obj(f), f"{len(f)} terms at bound {args.box_bound}"


def cmd_improve(args, H: BinaryMatrix) -> tuple[dict, str]:
    if (args.target_noncw is None) == (args.target_fer is None):
        raise ValueError("give exactly one of --target-noncw or --target-fer")
    target = ImproveTarget(
        max_noncw_vertices=args.target_noncw,
        max_fer=args.target_fer,
        p=args.crossover if args.target_fer is not None else None,
    )
    report = improve_representation(
        H,
        args.n0,
        target,
        budget=args.budget,
        seed=args.seed,
        trials=args.trials,
    )
    obj = {
        "type": "improvement",
        "seed": report.seed,
        "n0": args.n0,
        "met_target": report.met_target,
        "iterations": [
            {
                "added_word": "".join(str(b) for b in it.added_word),
                "added_word_hex": hex(
                    int("".join(str(b) for b in reversed(it.added_word)), 2)
                ),
                "orbit_size": it.orbit_size,
                "vertex_count": it.vertex_count,
                "non_codeword_vertex_count": it.non_codeword_vertex_count,
                "fer_estimate": it.fer_estimate,
            }
            for it in report.iterations
        ],
        "final_matrix": format_dense(report.final_matrix),
    }
    return obj, f"met_target={report.met_target} after {len(report.iterations)} iterations"


# --- argument parsing ------------------------------------------------------


# Options that more than one subcommand reads: flag -> add_argument keywords.
_OPTIONS = {
    "--seed": {"type": int, "default": 0},
    "--format": {"default": "json", "choices": ["json", "csv"]},
}


def _add_command(sub, name: str, run, help: str, *flags: str) -> argparse.ArgumentParser:
    """Register a command that reads a matrix: its matrix argument, --out,
    --in-format, the named _OPTIONS it reads, and run(args, H), which
    _analyze calls."""
    p = sub.add_parser(name, help=help)
    p.add_argument("matrix")
    p.add_argument("--out", help="write output to this file (summary to stdout)")
    p.add_argument("--in-format", default="auto", choices=["auto", "dense", "alist"],
                   dest="in_format")
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])
    p.set_defaults(func=_analyze, run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conedec",
        description="Fundamental cones, relaxed polytopes, and pseudocodewords "
        "of binary parity-check codes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a matrix from a JSON recipe")
    p.add_argument("recipe")
    p.add_argument("--out")
    p.add_argument("--format", default="dense", choices=["dense", "alist"])
    p.set_defaults(func=cmd_build)

    _add_command(sub, "cone", cmd_cone, "fundamental cone census and extreme rays")
    _add_command(sub, "vertices", cmd_vertices, "relaxed polytope vertex census",
                 "--format")

    p = _add_command(sub, "decode", cmd_decode, "LP decode a word or run seeded trials",
                     "--seed", "--format")
    p.add_argument("--word", help="received word as a 0/1 string")
    p.add_argument("--random", action="store_true", help="Monte Carlo over the BSC")
    p.add_argument("--crossover", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--ml", action="store_true",
                   help="also ML decode: with --word, the ML word; "
                   "with --random, the LP failures that ML shares")
    p.add_argument("--orbit-n0", type=int, dest="orbit_n0",
                   help="with --random: decode whole shift orbits and report per-orbit")

    p = _add_command(sub, "genfun", cmd_genfun,
                     "truncated pseudocodeword generating function")
    p.add_argument("--box-B", type=int, required=True, dest="box_bound")

    p = _add_command(sub, "improve", cmd_improve,
                     "redundant-row representation improvement",
                     "--seed")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--target-noncw", type=int, dest="target_noncw")
    p.add_argument("--target-fer", type=float, dest="target_fer")
    p.add_argument("--crossover", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--budget", type=int, default=10)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BOUND
    except (NumericalFailure, AssertionError, ArithmeticError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
