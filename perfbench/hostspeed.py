"""Host-speed normalisation of the benchmark's timings.

On a shared host each vCPU flips between fast and slow spells, from a few
hundred milliseconds to minutes long, and slows the whole process: its CPU
time grows with its wall time. A fixed pure-Python kernel, timed again and
again while the measured work runs, tracks that speed. A timing of `t`
seconds during which the kernel took k_1..k_n seconds is reported as

    t * mean(KERNEL_REF_S / k_i)

seconds at reference speed: the time the work would take on a host on which
the kernel takes KERNEL_REF_S. Averaging the speed ratios, not the kernel
times, counts each stretch of the work by the work done in it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The kernel's typical time in a fast spell of a shared 2-vCPU x86-64 VM
# (CPython 3.11; about 0.33 ms in a slow spell). Only ratios between runs
# matter; the constant only sets the scale, which puts the reported values a
# little below the wall times of a quiet host.
KERNEL_REF_S = 190e-6
# CPU time between samples while work runs; one sample costs about 0.3 ms,
# so about 1 % of the measured time.
SAMPLE_PERIOD_S = 0.03
# Samples taken right before the work, so that work too short for the timer
# still has some.
PRESAMPLES = 3


def _kernel() -> int:
    d, acc = {}, 0
    for i in range(300):
        k = (i % 17, i & 7)
        d[k] = d.get(k, 0) + i
        acc += len(str(i)) * (i % 5) + len(sorted((i % 3, i % 7, i % 11)))
    return acc


def sample() -> float:
    """Seconds one kernel run takes now. No garbage collection runs inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples) -> float:
    """Factor from seconds measured to seconds at reference speed."""
    return statistics.fmean(KERNEL_REF_S / k for k in samples)


class Sampler:
    """Samples the kernel every `period_s` of CPU time while active.

    Uses ITIMER_PROF (SIGPROF), which leaves SIGALRM free. `spent` is the
    time the samples took, to be taken off the work's measured time.
    """

    def __init__(self, period_s: float = SAMPLE_PERIOD_S):
        self.period_s = period_s
        self.samples = []

    def _tick(self, *_):
        self.samples.append(sample())

    def __enter__(self):
        self.samples += [sample() for _ in range(PRESAMPLES)]
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def spent(self) -> float:
        return sum(self.samples[PRESAMPLES:])
