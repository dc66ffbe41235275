"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark's host is shared: its speed drifts by tens of percent over
minutes, and CPU time drifts with it, so neither wall nor CPU time of one
experiment is comparable with one taken a few minutes later. run.py times
this kernel in its own process between benchmark processes and scales each
process's times by

    REFERENCE_S / median(kernel times just before and just after it)

so that they read as host seconds at the reference speed. The kernel
uses no backsim code, so a change to backsim cannot move it. It mixes
interpreter-bound work with many numpy calls on an array that fits in the
first-level caches, which is what the workloads' inner loops do; on the
shared host these tracked the workloads' drift better than calls on tiny
arrays or passes over arrays larger than the caches.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on a quiet host (about the lowest of many runs, pinned
# to one CPU as run.py does, on the 2-vCPU Xeon VM the baseline was recorded
# on). It only sets the unit of the scaled times; any fixed value would do.
REFERENCE_S = 0.13

_ARRAY = np.linspace(0.0, 1.0, 4_000)


def kernel_s():
    """Wall time of one pass of the fixed kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i * i % 7
    array = _ARRAY
    for _ in range(6_000):
        array = np.sqrt(array * array + 1.0) * 0.5
    elapsed = time.perf_counter() - started
    if total != 1_599_999 or not np.isfinite(array[-1]):
        raise RuntimeError("calibration kernel computed a wrong value")
    return elapsed
