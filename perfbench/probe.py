"""Host-speed probes: fixed work that never touches todatopo.

The 2-vCPU host switches between a fast and a slow speed every few
seconds, and for minutes at a time (up to 1.5x apart for the package's
ops).  Each op's time is divided by the mean of the probe times taken
just before and just after it, which cancels most of that drift, and
scaled by REF_S so that the result reads as seconds at a fixed host speed.
Interpreter starts are scaled the same way by the time of a bare
interpreter start, which drifts with them (between about 0.2 s and 0.3 s
for a start that imports todatopo.cli) and which the CPU-bound probe does
not follow.  A change to the package cannot move either probe, so it
moves the scaled time in full.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# Scale of the reported times: about the probe's median time on a 2-vCPU
# Intel Xeon at its fast speed.  Any fixed value serves; it must not change
# between the runs that are compared.
REF_S = 0.005
# The same for a bare interpreter start.
START_REF_S = 0.07


def host_probe() -> float:
    """Time of tuple and dict churn, a sort and small numpy products, the
    kinds of work the package does."""
    start = perf_counter()
    counts = {}
    for i in range(2000):
        key = tuple((i * k) % 31 for k in range(5))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    a = np.ones((6, 6))
    for _ in range(300):
        a = np.tanh(a @ a.T) + np.eye(6)
    return perf_counter() - start


def bare_start() -> float:
    """Wall time of an interpreter start that imports nothing."""
    start = perf_counter()
    # No timeout here: with one, subprocess polls in steps of up to 50 ms.
    rc = subprocess.call([sys.executable, "-c", "pass"])
    if rc != 0:
        raise RuntimeError(f"bare interpreter start exited with {rc}")
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float, ref: float = REF_S) -> float:
    """``seconds`` at the reference speed, given the probe times around it."""
    return seconds * 2.0 * ref / (before + after)
