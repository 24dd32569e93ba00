"""Times at a reference machine speed.

The machine this benchmark was built on changes speed by up to 2x within
seconds, from other tenants sharing its cores, and a process's CPU time
changes with it: raw seconds of one operation spread by about 30% from
run to run.  So while a block runs, a timer signal every INTERVAL_S runs
a fixed snippet of Fraction arithmetic, tuples and dicts and records how
long it took.  The block's time without those snippets, times REFERENCE_S
over the mean snippet time, is its time at the speed where the snippet
takes REFERENCE_S.  The raw time is kept too.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
REFERENCE_S = 0.00125


def snippet():
    """Seconds for a fixed mix of the work the package does most."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 200):
        f = Fraction(i % 7 - 3, 1 + i % 5)
        acc += f * f
        key = (i % 31, i % 17)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


class Sampler:
    """Times a block: ``raw_s`` as measured less the snippets run inside
    it, ``scaled_s`` at reference speed.  With sampling off both are the
    plain elapsed time, and no signal is used."""

    def __init__(self, sampling=True):
        self.sampling = sampling
        self.samples = []
        self.raw_s = self.scaled_s = None

    def _tick(self, signum, frame):
        self.samples.append(snippet())

    def __enter__(self):
        if self.sampling:
            self.samples = [snippet()]
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        elapsed = time.perf_counter() - self._t0
        if not self.sampling:
            self.raw_s = self.scaled_s = elapsed
            return False
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = elapsed - sum(self.samples[1:])
        self.scaled_s = self.raw_s * REFERENCE_S / statistics.mean(self.samples)
        return False
