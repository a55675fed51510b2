"""Host speed, sampled in the worker while it runs.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within seconds.  A job timed alone would measure that
drift as much as the program.  So while a round runs, an interval timer
interrupts it every SAMPLE_PERIOD_S and times a fixed stretch of exact
arithmetic of the benchmark's own (`reference`), in the same process on
the same CPU.  Every timed region is then scaled by REFERENCE_S over the
mean time of the samples taken during it (at least MIN_SAMPLES, the
nearest ones when the region is shorter): the figures are seconds on a
host on which one sample takes REFERENCE_S.  The time the samples take is
taken out of each region first.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import oracles

SAMPLE_PERIOD_S = 0.01
REFERENCE_S = 2.5e-4
MIN_SAMPLES = 4

_POINT = {v: 7 * i * i - 3 * i + 1
          for i, v in enumerate(("a1", "a2", "a3", "b1", "b2", "x"))}


def reference() -> None:
    """About 0.2 ms of Fraction sums and tuple-keyed dict updates, the
    operations foamlib spends its time on; it never calls foamlib."""
    oracles.sylvester(_POINT, ("a1", "a2", "a3"), ("b1", "b2"), 1, 1)
    counts = {}
    for i in range(600):
        key = (i % 61, i % 17)
        counts[key] = counts.get(key, 0) + i * i


class HostSpeed:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        reference()
        self.took.append(time.perf_counter() - start)
        self.at.append(start)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def region(self):
        """Start a timed region; call the result to end it and get
        (start, end, seconds) with the samples' own time taken out."""
        start, spent = time.perf_counter(), self.spent

        def end():
            now = time.perf_counter()
            return start, now, now - start - (self.spent - spent)
        return end

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """seconds at the reference speed, from the samples in [start, end]."""
        i, j = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.at)):
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        return seconds * REFERENCE_S / statistics.fmean(self.took[i:j])
