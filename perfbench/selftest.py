"""Self-test of the benchmark, at a tiny size.

For every workload it checks that an untraced and a traced run exit 0 and
emit exactly the metrics of BENCHMARK.json with their units, and that a
wrong answer injected into conedec is counted as a failed operation.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def wrong_objective(M):
    orig = M.lpdecode.lp_decode

    def lp_decode(*args, **kwargs):
        res = orig(*args, **kwargs)
        return dataclasses.replace(res, objective=res.objective + 1)

    M.lpdecode.lp_decode = lp_decode


def dropped_ray(M):
    orig = M.dd.extreme_rays_int
    M.dd.extreme_rays_int = lambda *args, **kwargs: orig(*args, **kwargs)[:-1]


def negated_membership(M):
    orig = M.cone.ConeSystem.contains
    M.cone.ConeSystem.contains = lambda self, v: not orig(self, v)


INJECT = {
    "decode-small": wrong_objective,
    "decode-large": wrong_objective,
    "census": dropped_ray,
    "certify": negated_membership,
}


def check_emitted(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"} or not res["correct"]:
        problems.append(f"{workload} trace={trace}: bad result line {sorted(res)}")
    if got != want:
        problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    return problems


def check_injection(workload: str) -> list[str]:
    with tempfile.TemporaryDirectory(dir=run.HERE / "out", prefix="selftest-") as tmp:
        M = run.fresh_import()
        wl = WORKLOADS[workload](M, True, Path(tmp))
        wl.prepare()
        INJECT[workload](M)
        p = run.run_rounds(wl, 1, 0, 1, 1)
    if not p.failures:
        return [f"{workload}: injected wrong answer was not counted"]
    print(f"{workload}: injected fault caught in {len(p.failures)} of {p.attempted} ops")
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = run.load_spec()
    (run.HERE / "out").mkdir(exist_ok=True)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_emitted(w["name"], trace, spec)
        problems += check_injection(w["name"])
    for p in problems:
        print("SELFTEST FAIL " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
