"""How fast the CPU runs right now, for scaling measured CPU times.

On a shared host the same work can take 1.7 times as much CPU time from
one minute to the next, because other guests load the same physical
cores.  The benchmark therefore times a fixed piece of pure-Python work
(dicts, sets, ints, strings and floats, none of it from covgraph) next to
the workload, and reports each CPU time scaled to the reference speed:

    scaled = measured * factor(),  factor() = REFERENCE_S / calibration time

so a change in covgraph moves the scaled numbers and a change in the
host's speed does not.  REFERENCE_S is the calibration's median CPU time
on a 2-vCPU Xeon VM with CPython 3.11.7; on that box the scaled numbers
read as that box's CPU times.
"""

from __future__ import annotations

from statistics import median
from time import thread_time

REFERENCE_S = 0.0015


def _work() -> float:
    d = {}
    for i in range(2000):
        d[(i * 7919) & 1023, i & 15] = str(i)
    s = set()
    for (a, b), v in d.items():
        s.add(a ^ (b << 10) ^ len(v))
    x = 0.0
    for v in s:
        x += bin(v).count("1") * 0.5
    return x


def factor() -> float:
    """REFERENCE_S over the calibration's CPU time now (median of three)."""
    times = []
    for _ in range(3):
        t0 = thread_time()
        _work()
        times.append(thread_time() - t0)
    return REFERENCE_S / median(times)
