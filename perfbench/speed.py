"""Gauge of the host's current speed, to take it out of the timings.

On a shared host the same batch of work runs up to 2x faster or slower
from one minute to the next, and CPU time moves with wall time (the core
runs slower; the process is not descheduled).  So the runner times this
fixed reference computation right before and after every task and
reports each task's seconds scaled to the reference speed:

    reported = measured x REFERENCE_S / (mean kernel seconds next to it)

The kernel mixes what kslayers' hot paths spend their time on: the
interpreter (loops, calls, float arithmetic), numpy ufuncs and reductions
on small arrays, and a small LAPACK solve.  It uses no kslayers code, so a
change to kslayers moves the reported seconds exactly as it moves the
measured ones; only the host's speed is divided out.  The measured seconds
stay in each run's record line.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

# Seconds of one kernel() on the 2-core x86-64 box the benchmark was sized
# on, at its typical speed.  Only a scale: it makes the reported seconds
# read like measured seconds there.
REFERENCE_S = 0.0048

_X = np.linspace(0.01, 3.0, 64)
_A = np.random.default_rng(0).standard_normal((40, 40)) + 40.0 * np.eye(40)


def kernel(n: int = 200) -> float:
    acc = 0.0
    memo = {}
    for i in range(n):
        s = 0.0
        for j in range(60):
            s += math.sqrt(j + i) * 0.5 - (j % 7)
        memo[i % 13] = s
        acc += s
        y = np.exp(-_X * (1 + i % 5)) * np.log1p(_X)
        acc += float(y.sum()) + float(np.max(np.abs(np.diff(y))))
        if i % 10 == 0:
            acc += float(np.linalg.solve(_A, _X[:40]).sum())
    return acc


def timed_kernel() -> float:
    """Seconds of one kernel() run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def gauge(n: int, all_cpus: bool = False) -> list[float]:
    """Seconds of n kernel() runs on the calling thread's current CPU, or,
    with ``all_cpus``, taken in turn on each CPU the thread may use (its
    affinity is restored after).  The CPUs change speed independently, and
    a child process goes wherever the scheduler puts it, usually on a CPU
    other than its waiting parent's, so timings of child processes are
    scaled by the speed of all of them."""
    cpus = sorted(os.sched_getaffinity(0)) if all_cpus else []
    if len(cpus) < 2:
        return [timed_kernel() for _ in range(n)]
    out = []
    try:
        for i in range(max(n, len(cpus))):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            out.append(timed_kernel())
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def scale(kernel_s: list[float]) -> float:
    """Factor from measured to reference seconds, given the kernel times
    taken alongside the measurement.  Their mean, not their median: each
    core switches between a fast and a slow state (about 1.6x apart) every
    second or so, a measurement's time grows with the share of it spent
    slow, and the mean of the kernel times estimates that share, while the
    median of a two-state sample jumps from one state to the other."""
    return REFERENCE_S / statistics.fmean(kernel_s)
