"""The machine's speed, sampled while a session runs, to scale its timings.

The benchmark shares a few cores of a host with other work.  The same code
runs up to half again as slow while a neighbour keeps the core busy, and that
state lasts from seconds to minutes, so timings of one run and the next
disagree far more than the program does.  A fixed pure-Python reference loop
slows by nearly the same factor at the same moment.  A session therefore
times the reference loop right after its set-up and during its timed phase,
and scales
its timings by NOMINAL_S / (typical reference time): each time is reported in
seconds of a machine on which the reference loop takes NOMINAL_S.  The loop
is the benchmark's own code, so a change to the program moves the scaled
times exactly as it moves the raw ones.

During the timed phase a SIGALRM timer runs the loop every PERIOD_S from the
signal handler.  The time spent in the handler is kept in ``paused`` and
left out of ``clock()``, so the samples cost the measured calls nothing.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_ITERATIONS = 10_000
NOMINAL_S = 0.004  # near the loop's time on an uncontended core of a 2-vCPU x86_64 VM
PERIOD_S = 0.1
EDGE_SAMPLES = 5  # reference loops that time the set-up
WINDOW_S = 0.3  # samples this close to a query scale its latency
LOCAL_SAMPLES = 5  # or at least this many nearest samples


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def mul(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a * other.a % 65521, (self.b + other.b) & 0xFFFF)


def ref_loop() -> float:
    """Seconds taken by one pass of the fixed reference loop.

    Integer arithmetic and dict stores, then method calls that allocate
    objects and tuples: on a shared 2-vCPU x86_64 VM the first half alone
    slowed less than the package's code under contention, the second more.
    """
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 4095] = acc
    x, y, out = _Pair(3, 5), _Pair(7, 11), []
    for i in range(REF_ITERATIONS // 4):
        x = x.mul(y)
        out.append((x.a, x.b))
        table[i & 4095] = x.a
    return time.perf_counter() - t0


def probe() -> list[float]:
    return [ref_loop() for _ in range(EDGE_SAMPLES)]


class Sampler:
    """Reference-loop samples taken from a timer while a block runs.

    Use as a context manager around the timed phase; ``clock()`` is
    ``time.perf_counter()`` minus the time spent taking samples.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.times: list[float] = []  # clock() when each sample was taken
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(t0 - self.paused)
        self.samples.append(ref_loop())
        self.paused += time.perf_counter() - t0

    def clock(self) -> float:
        while True:  # retry if a sample was taken between the two reads
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def local_scale(self, start: float, seconds: float) -> float:
        """Scale for a call timed from ``start`` on ``clock()``.

        Uses the samples taken within WINDOW_S of the call, or the
        LOCAL_SAMPLES nearest to it when there are fewer: the speed can
        change within a session, and a short call ran at the speed of its
        moment.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        if hi - lo < LOCAL_SAMPLES:
            mid = bisect.bisect_left(self.times, start + seconds / 2)
            lo = max(0, min(mid - LOCAL_SAMPLES // 2, len(self.times) - LOCAL_SAMPLES))
            hi = lo + LOCAL_SAMPLES
        return scale(self.samples[lo:hi])

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # so that even a short block has a sample


def typical(samples: list[float]) -> float:
    """Mean of the samples without their highest and lowest tenth.

    Of fewer than ten samples, a fifth is dropped at each end (none of fewer
    than five).

    Samples are spread evenly in time, so their mean follows the share of
    the session spent at each speed, where a median would pick one speed;
    the trim drops samples that the scheduler interrupted.
    """
    xs = sorted(samples)
    k = len(xs) // 10 or len(xs) // 5
    return statistics.fmean(xs[k:len(xs) - k])


def scale(samples: list[float]) -> float:
    """Factor turning raw seconds into seconds at the nominal speed."""
    return NOMINAL_S / typical(samples)
