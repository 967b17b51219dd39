"""Host-speed calibration: a fixed pure-Python kernel sampled through each pass.

On a shared VM the same code runs up to about 1.8x slower when neighbours
load the host, in states that change from one second to the next.
Single-process medians cannot remove that, so while a pass runs, a
Sampler runs a short calibration kernel (a "chunk") from a SIGALRM handler
every INTERVAL_S of wall time.  The handler runs between bytecodes of
whatever the worker is doing, so chunks land inside long items as well as
between short ones.  An interval's work time is its wall time less the
chunks run within it, scaled by REF_CHUNK_S / (mean time of the chunks that
started within it or within WINDOW_S of it): it reads as seconds on a host
where one chunk takes REF_CHUNK_S.

The chunk uses only the standard library (Fraction arithmetic over a dict of
tuple keys, like racbox's tables) and never racbox, so a change to racbox
does not change the kernel.  Calibration time is never counted as work.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

REF_CHUNK_S = 0.0005  # about a chunk's time on a 2-vCPU Xeon VM in its faster state
INTERVAL_S = 0.01  # wall time between chunks while a pass runs
WINDOW_S = 0.05  # chunks this close to an interval also set its scale
CHUNK_TERMS = 200
CHUNK_SUM = sum(Fraction(i + 1, 2 * i + 3) for i in range(CHUNK_TERMS))


def chunk() -> Fraction:
    total = Fraction(0)
    table = {}
    for i in range(CHUNK_TERMS):
        key = (i & 3, i % 5, i)
        table[key] = Fraction(i + 1, 2 * i + 3)
        total += table[key]
    return total


def timed_chunk() -> float:
    start = perf_counter()
    if chunk() != CHUNK_SUM:
        raise AssertionError("calibration chunk computed a wrong sum")
    return perf_counter() - start


for _ in range(20):  # the first calls run unspecialized bytecode; keep them out of every sample
    timed_chunk()


def chunk_time(seconds: float) -> float:
    """Mean chunk time over back-to-back chunks for about `seconds`."""
    took = [timed_chunk()]
    while sum(took) < seconds:
        took.append(timed_chunk())
    return sum(took) / len(took)


class Sampler:
    """Chunks timed by a SIGALRM handler while `running()`; one per worker."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # start of each chunk
        self.sums = [0.0]  # sums[i]: time taken by the first i chunks

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        took = timed_chunk()
        self.starts.append(start)
        self.sums.append(self.sums[-1] + took)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self, start: float, end: float) -> float:
        """Time of the chunks run within [start, end].

        The handler runs on the worker's only thread, so a chunk lies wholly
        inside or wholly outside any interval timed by that thread."""
        return self.sums[bisect_right(self.starts, end)] - self.sums[bisect_left(self.starts, start)]

    def seconds(self, start: float, end: float) -> float:
        """Work seconds in [start, end] at reference host speed."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_right(self.starts, end + WINDOW_S)
        if hi == lo:
            lo, hi = 0, len(self.starts)
        if hi == lo:
            raise RuntimeError("no calibration chunk has run")
        mean = (self.sums[hi] - self.sums[lo]) / (hi - lo)
        return (end - start - self.spent(start, end)) * REF_CHUNK_S / mean
