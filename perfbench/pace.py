"""The machine's pace, measured beside the workload and divided out.

The benchmark runs on a few cores of a shared host.  Other tenants
change how fast the same pure-Python code runs by up to 1.6x, from one
millisecond to the next and in spells that last minutes, so raw times
of identical work differ between runs far more than a code change worth
detecting.  The worker therefore runs a short fixed reference chunk
(plain Python, no polinv) right before every sample and, on a timer,
every PACE_EVERY seconds inside long samples, and leaves the chunks'
own time out of the samples.

A sample's time is scaled by REF_S over the harmonic mean of the chunk
times within WINDOW_S of it.  The harmonic mean is the right average
for a time integral: a call that runs through fast and slow stretches
takes its work divided by the mean speed, and a chunk's speed is one
over its time.  Scaled times are seconds at the pace where one chunk
takes REF_S, about the typical pace of the machine the benchmark was
written on (2-core Intel Xeon VM, Python 3.11).

The chunk never calls polinv, so a change to the library moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PACE_EVERY = 0.025  # seconds between reference chunks on the timer
WINDOW_S = 0.005  # references this far before a sample's start or after its end scale it
MIN_REFS = 2  # widen the window to the nearest this many references
REF_S = 0.0005  # seconds per chunk at the reference pace
CHUNK_STEPS = 2000


def chunk() -> int:
    """The reference work: list indexing, dict updates and small-int
    arithmetic, the inner loops of the library without its containers.
    It makes no object the cyclic garbage collector tracks, so its time
    does not depend on how much the workload holds in memory."""
    table = _TABLE
    counts: dict = {}
    acc = 0
    for i in range(CHUNK_STEPS):
        v = table[(i * 31 + acc) % 97]
        counts[v] = counts.get(v, 0) + 1
        acc = (acc + v * counts[v]) & 0xFFFF
    return acc


_TABLE = [(x * x) % 61 for x in range(97)]


class Pacer:
    """Runs reference chunks and keeps their times.

    The worker calls measure() before every sample.  While started,
    SIGALRM also interrupts the workload every PACE_EVERY seconds
    (between two bytecodes) to run one chunk, so the pace is sampled
    inside calls that take seconds.  A chunk lies wholly
    before, inside or after any clock reading of the workload, so
    paused() can take exactly the chunks inside a sample out of it.
    """

    def __init__(self) -> None:
        self.mids: list[float] = []  # chunk midpoints on perf_counter
        self.times: list[float] = []  # chunk durations, seconds
        self.busy = False

    def measure(self) -> None:
        if self.busy:
            return
        self.busy = True
        clock = time.perf_counter
        start = clock()
        chunk()
        end = clock()
        self.mids.append((start + end) / 2)
        self.times.append(end - start)
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.measure())
        signal.setitimer(signal.ITIMER_REAL, PACE_EVERY, PACE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def paused(self, since: int, start: float, end: float) -> float:
        """Seconds of chunks run between clock readings start and end,
        looking only at chunks from index `since` on."""
        return sum(dt for mid, dt in zip(self.mids[since:], self.times[since:]) if start < mid < end)


class Pace:
    """Scale factors from a run's reference chunks."""

    def __init__(self, mids: list[float], times: list[float]) -> None:
        self.mids = mids
        self.times = times

    def overall(self) -> float:
        """REF_S over the harmonic mean of every chunk time."""
        return REF_S / statistics.harmonic_mean(self.times)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the harmonic mean of the chunk times near [start, end]."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi - lo < MIN_REFS:
            centre = bisect.bisect_left(self.mids, (start + end) / 2)
            lo = max(0, min(centre - MIN_REFS // 2, len(self.mids) - MIN_REFS))
            hi = min(len(self.mids), lo + MIN_REFS)
        return REF_S / statistics.harmonic_mean(self.times[lo:hi])
