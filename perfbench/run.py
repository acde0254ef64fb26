"""Benchmark for conedec: four seeded closed-loop workloads, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decode-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets the workload up several times (fresh import of conedec,
instance construction, input generation) and reports the median as
``setup_s``.  It then repeats rounds of operations until ``--seconds`` are
used, checks every answer against the references in reference.py, and
prints the end-to-end metrics named in BENCHMARK.json, with timings scaled
to a reference host speed (hostspeed.py) and the raw values alongside.
With ``--trace 1`` it measures untraced rounds for half the time, then
runs a fixed number of rounds with spans at conedec's module boundaries
(tracing.py), and prints the per-layer metrics, the tracing overhead and
the ROADMAP baseline rows.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation returned the right answer.

Seeds: DEFAULT_SEED is the one used while writing a change; check a
performance claim again on HOLDOUT_SEED, which no change is tuned on.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HOLDOUT_SEED = 20261017
SETUP_REPS = 9
MODULES = ("cli", "cone", "constructions", "dd", "gf2", "lpdecode", "pcw", "polytope",
           "qcimprove", "serialize", "simplex")


def fresh_import() -> SimpleNamespace:
    """Import conedec from scratch, so each set-up repetition pays it."""
    for name in [m for m in sys.modules if m == "conedec" or m.startswith("conedec.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("conedec")
    return SimpleNamespace(package=pkg, **{m: importlib.import_module(f"conedec.{m}") for m in MODULES})


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    # One independent stream per (workload, seed, round): a string seed is
    # hashed, so nearby seeds share no error patterns.
    return random.Random(f"perfbench/{workload}/{seed}/{r}")


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail(sorted_vals: list[float], target: float) -> tuple[float, float, int]:
    """The workload's tail percentile, lowered just as far as needed to
    leave at least ten samples beyond it; returns (value, pct, beyond)."""
    n = len(sorted_vals)
    k = max(1, min(math.ceil(target / 100 * n), n - 10))
    return sorted_vals[k - 1], 100 * k / n, n - k


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


class Pass:
    """Op timings, round times and failures of one sequence of rounds.
    Every time is kept raw and scaled to the reference host speed."""

    def __init__(self):
        self.walls: list[float] = []  # raw seconds of op time per round
        self.scaled_walls: list[float] = []
        self.op_times: list[tuple[str, float, float]] = []  # (kind, raw, scaled)
        self.attempted = 0
        self.failures: list[str] = []

    def by_kind(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for kind, dt, _ in self.op_times:
            out.setdefault(kind, []).append(dt)
        return out


def run_rounds(wl, seed: int, budget_s: float, min_rounds: int, max_rounds: int | None,
               tracer=None, first_ops=None) -> Pass:
    """Closed loop with one client: each op starts when the previous one
    returned.  Round r's inputs come from its own stream, so a traced pass
    replays the untraced rounds exactly.  Inputs are generated before a
    round, host-speed probes run between ops, and answers are checked after
    the round; none of that is in the round's time, which is the sum of
    its op times.  After min_rounds, stops before a round that would
    overrun budget_s."""
    res = Pass()
    start = perf_counter()
    r = 0
    while max_rounds is None or r < max_rounds:
        if r >= min_rounds:
            elapsed = perf_counter() - start
            if elapsed + elapsed / r > budget_s:
                break
        if tracer is not None:
            tracer.phase = "inputs"
        ops = first_ops if (r == 0 and first_ops is not None) else wl.ops(round_rng(wl.name, seed, r))
        results = []
        probes = [hostspeed.probe()]
        since = 0.0
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.phase, tracer.op = "op", (r, k)
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            dt = perf_counter() - t0
            results.append((out, err, dt, len(probes) - 1))
            since += dt
            if since >= hostspeed.PROBE_EVERY_S or k == len(ops) - 1:
                if tracer is not None:
                    tracer.phase, tracer.op = "probe", None
                probes.append(hostspeed.probe())
                since = 0.0
        scaled = [hostspeed.scale(dt, probes, i) for _, _, dt, i in results]
        res.walls.append(sum(dt for _, _, dt, _ in results))
        res.scaled_walls.append(sum(scaled))
        if tracer is not None:
            tracer.phase = "check"
        for k, (op, (out, err, dt, _), dts) in enumerate(zip(ops, results, scaled)):
            if tracer is not None:
                tracer.op = (r, k)
            if err is None:
                try:
                    err = op.check(out)
                except Exception:
                    err = "check raised: " + traceback.format_exc(limit=3)
            res.attempted += 1
            res.op_times.append((op.kind, dt, dts))
            if err is not None:
                res.failures.append(f"round {r} op {k} ({op.kind}): {err}")
        if tracer is not None:
            tracer.op = None
        r += 1
    return res


def end_to_end(wl, p: Pass, setup: tuple[float, float]) -> tuple[dict, dict]:
    """Timings scaled to the reference host speed, plus the raw values."""
    out, raw = {}, {}
    for dest, walls, ops in (
        (out, p.scaled_walls, sorted(s * 1000 for _, _, s in p.op_times)),
        (raw, p.walls, sorted(dt * 1000 for _, dt, _ in p.op_times)),
    ):
        tail_ms, tail_pct, beyond = tail(ops, wl.tail_pct)
        dest.update({
            "wall_s": statistics.median(walls),
            "ops_per_s": p.attempted / len(walls) / statistics.median(walls),
            "op_ms.p50": percentile(ops, 50.0),
            "op_ms.tail": tail_ms,
        })
    out["setup_s"], raw["setup_s"] = setup
    out["peak_rss_mb"] = raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "wall_s": f"median of {len(p.walls)} rounds of {p.attempted // len(p.walls)} ops",
        "op_ms.p50": f"{len(p.op_times)} samples",
        "op_ms.tail": f"p{tail_pct:.4g}, {beyond} of {len(p.op_times)} samples beyond",
        "setup_s": f"median of {SETUP_REPS} set-ups",
    }
    return out, {k: f"raw {raw[k]:.6g}; {notes[k]}" if k in notes else f"raw {raw[k]:.6g}" for k in raw}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args) -> int:
    spec = load_spec()
    cls = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = machine(args.workload, args.seed)
    print("machine: " + json.dumps(rec))
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        workdir = Path(tmp)
        setup_raw, setup_scaled = [], []
        before = hostspeed.probe()
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            M = fresh_import()
            wl = cls(M, args.tiny, workdir)
            first_ops = wl.ops(round_rng(wl.name, args.seed, 0))
            setup_raw.append(perf_counter() - t0)
            after = hostspeed.probe()
            setup_scaled.append(hostspeed.scale(setup_raw[-1], [before, after], 0))
            before = after
        wl.prepare()

        n_traced = 1 if args.tiny else wl.trace_rounds
        plain = run_rounds(wl, args.seed, args.seconds / 2 if args.trace else args.seconds,
                           n_traced if args.trace else 1, 1 if args.tiny else None, first_ops=first_ops)
        values, notes = end_to_end(wl, plain, (statistics.median(setup_scaled), statistics.median(setup_raw)))
        failures = list(plain.failures)
        attempted = plain.attempted

        if args.trace:
            tracer = Tracer()
            tracer.install(M)
            try:
                wl_t = cls(M, args.tiny, workdir)
                tracer.phase = "reference"
                wl_t.prepare()
                traced = run_rounds(wl_t, args.seed, 0, n_traced, n_traced, tracer=tracer)
            finally:
                tracer.uninstall()
            failures += traced.failures
            attempted += traced.attempted
            layer = tracer.layer_metrics()
            # Traced round r replays untraced round r, so the pairs differ
            # only by the tracing; scaled times take out the host's speed.
            layer["trace.overhead_s"] = statistics.median(
                t - u for t, u in zip(traced.scaled_walls, plain.scaled_walls)
            )
            gone = tracer.absent_metrics()

    for line in failures[:20]:
        print("FAILED " + line.rstrip().replace("\n", "\n    "))
    print(f"error_rate: {len(failures) / attempted:g} ({len(failures)} of {attempted} ops)")
    metrics = {}
    if not args.trace:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{args.workload:13s} {m['name']:12s} {values[m['name']]:.6g} {m['unit']}  ({notes[m['name']]})")
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            if any(name == g or name.startswith(g + ".") for g in gone):
                print(f"{args.workload:13s} {name:36s} absent at this commit")
                continue
            metrics[name] = {"value": layer.get(name, 0), "unit": m["unit"]}
            print(f"{args.workload:13s} {name:36s} {layer.get(name, 0):.6g} {m['unit']}")
        print(f"tracing overhead: {layer['trace.overhead_s']:.4f} s per round, scaled (median over "
              f"{n_traced} rounds replayed with tracing; untraced round {values['wall_s']:.4f} s)")
        kinds = plain.by_kind()
        for row, kind in wl.baseline:
            ts = kinds.get(kind, [])
            if ts:
                print(f"baseline: {row}: {statistics.median(ts) * 1000:.3f} ms "
                      f"(raw median of {len(ts)}, untraced)")
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "machine": rec,
            "end_to_end": values,
            "per_layer": layer,
            "spans": tracer.spans,
        }))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is its own."""
    spec = load_spec()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not (lines and lines[-1].startswith("{")):
            print(f"{w['name']}: exit code {proc.returncode}, no result")
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{w['name']}.{k}"] = v
        code = code or proc.returncode
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one small round, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "conedec" / "__init__.py").is_file():
        print(f"error: no conedec source tree under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"--workload must be one of {names} or all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    # Cache bytecode as an installed package would: the first set-up
    # compiles conedec, the rest (and the reported median) load the cache.
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
