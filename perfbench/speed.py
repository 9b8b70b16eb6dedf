"""Machine speed sampler.

The machine this benchmark runs on is shared: for stretches of
milliseconds to minutes it runs any code 20-45 % slower, and CPU time
slows with wall time, so the program is not waiting but running slower.
A median over passes cannot remove a slow stretch that lasts as long as
the run.

`Sampler` runs a short fixed reference computation (interpreted
arithmetic, dict updates and calls, in pure Python so that it can be
timed before numpy is imported) from a
SIGALRM handler every `INTERVAL_S` of wall time, in the benchmark's own
thread, while the program runs. `scaled(t0, t1)` is the time the
program took between `t0` and `t1`, minus the samples taken in
between, rescaled by the mean speed those samples saw: a machine
running the reference in `NOMINAL_S` has speed 1. The reference is the
benchmark's own code and never calls the package, so a change to the
package moves the rescaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.05
# A typical reference time on the 2-CPU Xeon machine described in
# NOTES.md; the scale of every rescaled time.
NOMINAL_S = 0.0003

def _mix(a, b):
    return (a * 31 + b) % 1_000_003


def reference():
    """One reference computation; its result is discarded."""
    acc = 0
    seen = {}
    for i in range(1_000):
        acc = _mix(acc, i * i % 7)
        seen[i & 63] = acc
    return acc + sum(seen.values())


class Sampler:
    """Reference samples taken while the benchmark runs."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts = []  # perf_counter at the start of each sample
        self.times = []   # its duration
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def speed(self, lo=0, hi=None):
        """Mean speed (NOMINAL_S / sample time) of samples lo..hi."""
        times = self.times[lo:hi]
        return sum(NOMINAL_S / t for t in times) / len(times) if times else None

    def scaled(self, t0, t1):
        """Rescaled seconds of the program between perf_counter t0 and t1:
        the time minus the samples in between, times their mean speed
        (the run's mean speed when none fell in between)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = sum(self.times[lo:hi])
        speed = self.speed(lo, hi) or self.speed() or 1.0
        return (t1 - t0 - busy) * speed
