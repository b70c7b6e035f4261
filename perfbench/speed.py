"""Machine-speed probe: time a fixed reference loop while a call runs.

On a shared VM the speed of pure-Python code swings by a third from one
half-minute to the next, because other tenants share the cores.  Raw wall
times of identical calls spread as much.  So the benchmark also expresses a
call's time in reference seconds: its wall time divided by the median time
of a fixed reference loop sampled during that same call, times
``REF_SECONDS``.  The loop is interpreter work like the program's, so
contention slows both alike and the ratio stays put.

While a call runs, a ``SIGALRM`` handler runs the loop every
``INTERVAL_S`` seconds; the handler's own time is taken out of the call's.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REF_ITERATIONS = 4000
# The loop's median time on a quiet 2-CPU 2.1 GHz Xeon VM with Python
# 3.11.7; it only sets the scale of reference seconds.
REF_SECONDS = 0.0007


def _reference_loop() -> int:
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 63] = acc
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return (result, wall seconds, reference seconds).

        The wall time excludes the probe's samples.  Exceptions from ``fn``
        propagate after the timer is stopped.
        """
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.samples[1:])
        self._sample()
        return result, wall, wall * REF_SECONDS / statistics.median(self.samples)
