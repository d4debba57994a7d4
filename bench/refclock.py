"""Reference-scaled time: wall time corrected for the shared host's speed swings.

On a shared host the same interpreter work runs up to about 30% faster or
slower from one stretch of a few seconds to the next.  A fixed pure-Python
loop, timed between operations, swings with it: over 10-second windows the raw
time of one engine call varied by +-18% while its ratio to the loop varied by
+-2.5%.  RefClock samples that loop every REF_EVERY_S and scales an interval
by REF_NOMINAL_S over the mean loop time around it, giving seconds at the
speed where the loop takes REF_NOMINAL_S.  The loop is harness code, so no
change to qcenum moves it.
"""

import bisect
import statistics
import time

REF_LOOPS = 100_000
REF_NOMINAL_S = 0.010  # about the loop's time on the host this was tuned on
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0


def _loop() -> int:
    x = 0
    for i in range(REF_LOOPS):
        x += i * i % 7
    return x


class RefClock:
    def __init__(self):
        self.starts = []
        self.durations = []
        _loop()  # warm the interpreter's specialised bytecode

    def sample(self) -> None:
        start = time.perf_counter()
        _loop()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def tick(self) -> None:
        """Sample unless the last sample is recent."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for an interval: REF_NOMINAL_S over the mean loop time of the
        samples within REF_WINDOW_S of it, always including the nearest
        sample on each side."""
        n = len(self.starts)
        lo = min(
            bisect.bisect_left(self.starts, start - REF_WINDOW_S),
            max(bisect.bisect_right(self.starts, start) - 1, 0),
        )
        hi = max(
            bisect.bisect_right(self.starts, end + REF_WINDOW_S),
            min(bisect.bisect_left(self.starts, end) + 1, n),
        )
        return REF_NOMINAL_S / statistics.fmean(self.durations[lo:hi])

    def summary(self) -> dict:
        return {
            "samples": len(self.durations),
            "median_s": statistics.median(self.durations),
            "min_s": min(self.durations),
            "max_s": max(self.durations),
        }
