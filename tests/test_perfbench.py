"""The benchmark's self-test, run as an ordinary test.

perfbench wraps conedec's functions by name (for example cli._json,
lpdecode.rationalize_llr, ExactSimplex._pivot, solve, _optimum_is_unique
and ConeSystem.contains) and checks each workload's answers.  Running its
self-test here makes a renamed hook, or a workload whose answers break at
the tiny size, fail the test suite rather than only the benchmark run.  It
takes a few seconds and writes only under the gitignored perfbench/out/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "selftest: ok" in proc.stdout.splitlines()
