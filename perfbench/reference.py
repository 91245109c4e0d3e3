"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the speed of the cores drifts by up to 2x over tens of
seconds to minutes, so pass times of the same code at the same seed spread
that much between runs.  The worker times this kernel right before and
after every pass, and ``wall_rel`` is the median pass wall time divided by
the median of all those samples; the ratio cancels most of the drift.  The
kernel uses only numpy and the standard library, never ``specgeom``, so no
change to the program moves it.

The kernel maps small lattice enumerations (interpreted Python on small
numpy arrays) over a thread pool of ``os.cpu_count()`` workers, so it runs
on every core the measured process may be scheduled on.  Measured over
eight 15-second runs of each workload on a 2-core shared host, dividing by
it kept the spread of the per-run medians within 0.05-0.10 of the median on
every workload, where the raw wall time spread 0.14-0.25.  Single-threaded
kernels (a Python loop, dense LAPACK solves, a sparse LU with shift-invert
ARPACK, a sparse LU too large for the caches, and their sums) did worse on
at least one workload.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REPEATS = 4
TASKS = 48


def _lattice_task(i):
    acc = 0
    for j in range(4_000):
        acc += j * j
    k = np.arange(-20.0, 21.0)
    values = np.add.outer((k + 0.5 * i) ** 2, (1.3 * k) ** 2).ravel()
    return float(np.sort(values)[:64].sum()) + acc


def kernel():
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        list(pool.map(_lattice_task, range(TASKS)))


def sample():
    """Wall times of ``REPEATS`` back-to-back runs of the kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times
