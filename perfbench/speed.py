"""Machine-speed sampling, so that timings survive the host's speed swings.

On a shared host the speed of one core can swing by a factor of about 1.7
within seconds: on the 2-core host the baseline was measured on, the same
fixed loop took between 8.6 and 14.8 ms, and one ``run_case`` took 1.2 s in
one minute and 1.9 s in the next. Repeating work inside one run does not
average that out, because runs of a workload happen minutes apart.

So while a run measures, a SIGALRM timer interrupts it every ``INTERVAL_S``,
and the caller marks the edges of each operation; each time a fixed
pure-Python slice of work like the program's is timed: big-integer
multiply and shift, exact rationals, method calls creating small objects, and
gcd-normalized objects hashed into a dict. Of the mixes tried, this one left
the least spread in normalized times of LLL-, form- and cycle-bound cases.
The time of an interval is reported both raw and normalized: the integral
over the interval of ``REF_SLICE_S / slice time``, with the slices themselves
left out. A normalized time is in seconds at the reference speed, the speed
at which one slice takes ``REF_SLICE_S``, about that host's fast state.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time
from fractions import Fraction
from math import gcd

INTERVAL_S = 0.05
REF_SLICE_S = 0.001
_BIG = 7 ** 400


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, other):
        return _Pair((self.a * other.a - self.b) & 0xFFFF, self.b + other.a)


class _Reduced:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        g = gcd(gcd(abs(a), abs(b)), c)
        self.a, self.b, self.c = a // g, b // g, c // g

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __eq__(self, other):
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)


def work_slice() -> None:
    """Fixed work; its duration measures the machine's current speed."""
    acc = 0
    for i in range(1, 750):
        acc = ((acc + _BIG * i) >> 7) ^ (acc % 1000003)
    total = Fraction(0)
    rows = {}
    for i in range(1, 60):
        total += Fraction(i, i + 7)
        rows[str(i)] = (i, total.numerator % 97)
    pair = _Pair(1, 1)
    for i in range(300):
        pair = pair.step(_Pair(i & 7, 1))
    seen = {}
    for n in range(2, 22):
        x = _Reduced(n, 1, n + 1)
        for _ in range(8):
            x = _Reduced(x.c * 3 + x.a, x.b + 1, (x.a + x.c) % 97 + 1)
            seen[x] = n


class SpeedSampler:
    """Samples speed on a timer while started; see the module docstring."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> None:
        """Take a sample now, at the edge of an interval about to be timed.

        An operation of a few ms is otherwise normalized by samples up to
        ``INTERVAL_S`` away, across which the speed may have switched.
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick(None, None)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @contextlib.contextmanager
    def paused(self):
        """Sample at both edges of the block and not inside it.

        For timing a child process on this process's core: a sample taken
        while the child runs would compete with it for the core.
        """
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            self.mark()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        work_slice()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def _factor(self, i: int) -> float:
        return REF_SLICE_S / (self.ends[i] - self.starts[i])

    def median_factor(self) -> float:
        """Median speed over the samples; 1.0 is the reference speed."""
        factors = sorted(self._factor(i) for i in range(len(self.starts)))
        return factors[len(factors) // 2] if factors else 1.0

    def _gap_factor(self, before: int, after: int) -> float:
        """Speed factor between slice ``before`` and slice ``after``."""
        known = [self._factor(i) for i in (before, after)
                 if 0 <= i < len(self.starts)]
        return sum(known) / len(known) if known else 1.0

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """(raw, normalized) seconds of [a, b], slices excluded.

        Call after sampling ended, so that the slice following ``b`` exists.
        """
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_left(self.starts, b)  # slices [first, last)
        raw = norm = 0.0
        edge = a
        for i in range(first, last):
            gap = max(0.0, self.starts[i] - edge)
            raw += gap
            norm += gap * self._gap_factor(i - 1, i)
            edge = self.ends[i]
        gap = max(0.0, b - edge)
        raw += gap
        norm += gap * self._gap_factor(last - 1, last)
        return raw, norm
