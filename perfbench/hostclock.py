"""Timing in reference-host seconds, for a host whose speed drifts.

On a shared virtual machine one fixed piece of Python work takes up to
25% more or less time from one minute to the next; ten runs of the
simulate workload spread by a quarter on wall time although their work
differs by 3%.  So every time the benchmark reports is scaled to a
reference host speed: the measured seconds times ``CAL_REFERENCE_S``
over the time a fixed pure-Python calibration loop took around the
measured work.  The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the calibration loop.
CAL_ITERATIONS = 200_000
#: What the calibration loop takes at the reference host speed.
CAL_REFERENCE_S = 0.012


def _loop_seconds(samples: int) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        total = 0
        for i in range(CAL_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibrate(samples: int = 1, every_cpu: bool = True) -> float:
    """Seconds of the calibration loop (the median of ``samples`` runs).

    Each virtual CPU's speed drifts on its own.  Work that other
    processes do (a server, parallel workers) may run on any CPU, so
    with ``every_cpu`` the loop runs pinned to each CPU in turn and the
    medians are averaged; work done in this thread alone is calibrated
    where this thread runs.
    """
    if not every_cpu:
        return _loop_seconds(samples)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_loop_seconds(samples))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


class HostClock:
    """Converts measured seconds to reference-host seconds.

    ``factor()`` calibrates now and returns how slow the host ran since
    the previous calibration (the mean of the two, over the reference);
    dividing measured seconds by it gives reference seconds.
    """

    def __init__(self, samples: int = 1, every_cpu: bool = True) -> None:
        self.samples = samples
        self.every_cpu = every_cpu
        self.factors: list[float] = []
        self.mark = calibrate(samples, every_cpu)

    def reset(self) -> None:
        """Calibrate now, so the next factor covers only what follows."""
        self.mark = calibrate(self.samples, self.every_cpu)

    def factor(self) -> float:
        now = calibrate(self.samples, self.every_cpu)
        factor = (self.mark + now) / 2.0 / CAL_REFERENCE_S
        self.mark = now
        self.factors.append(factor)
        return factor

    def measure(self, fn, *args, **kwargs) -> tuple[float, float, object]:
        """Run ``fn``; returns ``(reference seconds, measured seconds, result)``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        return raw / self.factor(), raw, result
