"""Host-speed probe: a fixed pure-Python task timed next to the work.

On a shared host the same Python code can run at very different speeds
from one minute to the next. On a shared 2-core x86-64 virtual machine
(Linux, Python 3.11.7), a run's median round time moved by up to 2x
between runs of identical code. The probe is a few milliseconds of exact integer and
Fraction arithmetic, the kind of work conedec does. It is timed before the
first op of a round and then whenever 0.1 s of op time has passed. On
`census`, whose rounds are identical, an op's time divided by the probes
around it stayed within ±5% while the raw time moved ±22%.

Reported timings are scaled to a host on which the probe takes
PROBE_REF_S:  scaled = raw * PROBE_REF_S / probe.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

PROBE_REF_S = 0.005  # the probe's time on that machine in its fast state
PROBE_EVERY_S = 0.1


def _task() -> Fraction:
    rows = [[(i * 7 + j * 13) % 17 - 8 for j in range(60)] for i in range(60)]
    d = 1
    for r in range(10):
        piv = rows[r][r] or 1
        pr = rows[r]
        rows = [row if k == r else [(x * piv - row[r] * y) // d for x, y in zip(row, pr)]
                for k, row in enumerate(rows)]
        d = piv
    return sum(Fraction(i, i + 1) for i in range(1, 300))


def probe() -> float:
    """Seconds the fixed task takes right now."""
    t0 = perf_counter()
    _task()
    return perf_counter() - t0


def scale(raw_s: float, probes: list[float], i: int) -> float:
    """Scale work timed between probes[i] and probes[i + 1] by the median of
    the probes around it (up to three on each side), which follows the
    host's speed over seconds without adding one probe's own jitter."""
    return raw_s * PROBE_REF_S / statistics.median(probes[max(0, i - 2) : i + 4])
