"""Read how fast the host runs while a pass runs, on the pass's own core.

The benchmark's cores are shared with other tenants.  Their speed swings
between two states about a factor of two apart, and the share of time
in the slow one drifts within minutes; CPU time tracks wall time, so a
stage's wall time says as much about the neighbours as about the
program.  ``Sampler`` measures the swing: a timer signal runs one
fixed reference ``unit`` every ``INTERVAL_S`` in the pass's own thread,
between the program's bytecodes, so the samples cover the same core and
the same moments as the stages.  A stage's host factor is the mean unit
time during it over ``NOMINAL_UNIT_S`` (during all its calls, for a
stage called repeatedly, and during the whole set-up for the set-up
stages); the benchmark reports wall times, less the sampler's own time,
divided by that factor: seconds on a host running at the nominal speed.
Raw wall times stay in the run record.  The unit never changes, so the
factor depends on the host only, not on the program under test.

    python3 perfbench/reference.py   # prints mean and min unit time
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02  # timer period
NOMINAL_UNIT_S = 0.0003  # unit time that defines factor 1
WINDOW_S = 0.5  # samples this close to an interval also count for it,
MIN_SAMPLES = 5  # when it holds fewer than this many of its own

_WORDS = [f"w{i:03d}" for i in range(97)]
_IDX = np.arange(64) % 13
_VALS = np.ones(64)


def unit() -> float:
    """One unit of reference work: dict and string work, two small numpy calls."""
    counts: dict[str, int] = {}
    for i in range(600):
        word = _WORDS[(i * 37) % 97]
        counts[word[1:]] = counts.get(word[1:], 0) + 1
    acc = np.zeros(13)
    np.add.at(acc, _IDX, _VALS)
    return float(acc.sum()) + len(counts)


class Sampler:
    """Times ``unit`` on a timer signal while active.

    ``samples`` holds (start time, unit seconds) pairs on the
    ``time.perf_counter`` clock; ``spent()`` is the sampler's own time
    so far, to be taken out of the stage times it interrupts.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        unit()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self._spent += end - start

    def spent(self) -> float:
        return self._spent

    def __enter__(self) -> Sampler:
        unit()  # warm up outside the timed samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Host factor for the interval: its samples, widened if too few."""
        times = [t for t, _ in self.samples]
        for pad in (0.0, WINDOW_S, 2 * WINDOW_S, float("inf")):
            lo = bisect.bisect_left(times, start - pad)
            hi = bisect.bisect_right(times, end + pad)
            if hi - lo >= MIN_SAMPLES or pad == float("inf"):
                break
        durations = [d for _, d in self.samples[lo:hi]] or [NOMINAL_UNIT_S]
        return statistics.fmean(durations) / NOMINAL_UNIT_S


if __name__ == "__main__":
    found = []
    for _ in range(2000):
        start = time.perf_counter()
        unit()
        found.append(time.perf_counter() - start)
    print(f"mean {statistics.fmean(found) * 1e3:.4f} ms  min {min(found) * 1e3:.4f} ms  "
          f"median {statistics.median(found) * 1e3:.4f} ms")
