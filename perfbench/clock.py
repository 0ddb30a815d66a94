"""Seconds at reference host speed.

Shared 2-vCPU guests run the same pure-Python code 30-50 % slower for
stretches of a second to half a minute, in process CPU time as much as in
wall time, so raw timings of equal work taken minutes apart spread by more
than any useful bound.  The benchmark therefore measures the host's speed
while it times: a fixed pure-Python loop runs for a short sample before and
after every timed unit and, from an interval timer, every ``PERIOD`` seconds
inside it.  A unit's raw seconds, with the samples' own time taken out, are
scaled by ``mean loop rate / REFERENCE_RATE``: the seconds the unit would
have taken on a host that runs the loop at ``REFERENCE_RATE`` iterations per
second.  The program under test never sees the loop, so a change to the
program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

REFERENCE_RATE = 1_500_000.0  # loop iterations per second of the reference host
EDGE_ITERATIONS = 40_000  # sample before and after a unit, ~20-40 ms
PERIOD = 0.1  # seconds between samples inside a unit
INNER_ITERATIONS = 3_000  # ~2 ms, about 2 % of the unit's time

_MASKS = tuple((1 << (i * 7 % 61)) | (1 << (i % 13)) for i in range(64))


def _loop(iterations: int) -> int:
    # Int bit work, tuple building and list indexing: the mix of the engines'
    # inner loop, with no allocation that outlives an iteration.
    masks = _MASKS
    x = 0x9E3779B9
    acc = 0
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        word = masks[x & 63] | masks[(x >> 6) & 63]
        low = word & -word
        pair = (word.bit_count(), low.bit_length(), i)
        acc = (acc + pair[0] * pair[1]) & 0xFFFF
    return acc


class HostClock:
    """Samples the loop rate around and inside timed units and scales units by it.

    ``now()`` is ``perf_counter()`` minus the time spent in samples taken
    inside units; every duration measured inside a unit should use it.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.paused = 0.0
        self.last = self._sample(EDGE_ITERATIONS)

    def now(self) -> float:
        return perf_counter() - self.paused

    def _sample(self, iterations: int) -> float:
        start = perf_counter()
        _loop(iterations)
        elapsed = perf_counter() - start
        rate = iterations / elapsed
        self.rates.append(rate)
        return rate

    def _on_alarm(self, _signum, _frame) -> None:
        start = perf_counter()
        self._inside.append(self._sample(INNER_ITERATIONS))
        self.paused += perf_counter() - start

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return ``(result, raw seconds, factor)``.

        Raw seconds exclude the samples.  Multiply any duration measured with
        ``now()`` inside the unit by ``factor`` to get reference seconds.
        """
        self._inside: list[float] = []
        before = self.last
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = self.now()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = self.now() - start
            signal.signal(signal.SIGALRM, previous)
        self.last = self._sample(EDGE_ITERATIONS)
        return result, raw, fmean([before, *self._inside, self.last]) / REFERENCE_RATE
