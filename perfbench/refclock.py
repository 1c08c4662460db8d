"""Reference clock: how fast the host runs right now, sampled through a run.

The shared host this benchmark was built on changes speed by up to a third
from one minute to the next (README.md, "Steadiness"), and the program's
own CPU time changes with it, so timing alone cannot tell a slower program
from a slower host. While a workload runs, a timer interrupts it every
INTERVAL_S and runs one reference slice: a fixed mix of interpreter work
and numpy work on a 130 x 130 array, the two kinds of work gridtopo's
grouping does. Over 43 n = 200 learns on a drifting host, the log of a
learn's time followed the log of the mean slice time during it with a
slope of 1.04 (correlation 0.91); a pure interpreter slice gave 0.80 and a
pure numpy slice 1.24, so scaling by either over- or under-corrects. The
slice's working set is about 150 kB, so what the program left in the caches
barely moves it.

The benchmark subtracts the slices' time from every timing it takes, and
reports each timing scaled by NOMINAL_SLICE_S / (mean slice time over the
same stretch of the run: the set-up, or the pass the timing fell in):
seconds on a host where one slice takes NOMINAL_SLICE_S. The raw
wall-clock figures are printed beside them.
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.1
# A round figure between one slice's times in the fast and the slow periods
# of the 2-vCPU host the baseline was taken on (1.8 and 2.8 ms). It only
# sets the scale of the reported seconds; never change it.
NOMINAL_SLICE_S = 0.0025
# Slices run back to back when the clock starts, so that a set-up too short
# for the timer still has a scale.
BURST = 50
# Fewest slices a scale is taken over.
MIN_SLICES = 20

# A distance-matrix-sized operand, as grouping handles at n = 200 (k ~ 130).
_D = np.random.default_rng(12345).random((130, 130))
_V = _D[0].copy()


def reference_slice() -> float:
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(4_000):
        k = i % 89
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] if k & 1 else -table[k]
    for i in range(30):
        phi = _D[i] - _D[7 * i % 130]
        acc += float(phi.max() - phi.min())
        acc += float(np.abs(_D - _V[:, None]).sum(axis=1).max())
    return acc


class RefClock:
    """Runs reference slices from SIGALRM and keeps their times.

    A caller times a region with `now()`, which leaves the slices out.
    Inside `hold()` an alarm only marks a slice as due, and `release()` runs
    it: for regions that the program times itself, where the benchmark
    cannot take the slices out. A clock never started runs no slices, and
    `now()` is then plain perf_counter().
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0
        self._held = False
        self._due = False
        self._busy = False

    def now(self) -> float:
        """perf_counter() less the time slices took: the program's own clock."""
        return time.perf_counter() - self.spent

    def start(self) -> None:
        for _ in range(BURST):
            self.run_slice()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        if self._held:
            self._due = True
        else:
            self.run_slice()

    def run_slice(self) -> None:
        self._busy = True
        start = time.perf_counter()
        reference_slice()
        seconds = time.perf_counter() - start
        self.slices.append((start, seconds))
        self.spent += seconds
        self._busy = False

    def hold(self) -> None:
        self._held = True

    def release(self) -> None:
        self._held = False
        if self._due:
            self._due = False
            self.run_slice()

    def scale(self, since: float, until: float) -> float:
        """NOMINAL_SLICE_S over the mean slice that started in [since, until).

        A window with fewer than MIN_SLICES slices is widened, one slice on
        each side at a time, until it has them.
        """
        starts = [t for t, _ in self.slices]
        lo, hi = bisect.bisect_left(starts, since), bisect.bisect_left(starts, until)
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(starts))
        times = [s for _, s in self.slices[lo:hi]]
        if not times:
            raise RuntimeError("the reference clock ran no slice")
        return NOMINAL_SLICE_S * len(times) / sum(times)
