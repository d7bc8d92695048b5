"""A clock that runs at the machine's current speed for pure Python.

The 2-core box this benchmark was defined on shares its cores with other
tenants: the same work takes anywhere from 0.7x to 1.3x its median time, in
swings lasting seconds to tens of seconds, so two 20-second runs of identical
code can differ by 25 %.  ``SpeedClock`` samples that speed while a run is in
progress: a SIGALRM handler runs a fixed kernel (exact rational elimination
and residue arithmetic, no ``nilj`` code) for ``SLICE_S`` every ``PERIOD_S``
and records its rate.  ``reference_seconds(t0, t1)`` is the wall time of
[t0, t1] minus the probes inside it, scaled by the rate measured in and around
it over ``REFERENCE_RATE``: the time the work would have taken had the machine
run the kernel at that rate.  The kernel never touches the package, so a
change to ``nilj`` moves the work and never the yardstick.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# kernel steps per second: the median over a minute on the 2-core box (Python 3.11.7)
REFERENCE_RATE = 1350.0
SLICE_S = 0.03  # length of one probe
PERIOD_S = 0.25  # time between probes

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(6)] for i in range(5)]


def kernel_step() -> int:
    """One unit of fixed work shaped like the package's hot loops."""
    m = [list(r) for r in _MATRIX]
    r = 0
    for c in range(6):
        p = next((i for i in range(r, 5) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(5):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    acc = {}
    for x in range(120):
        acc[x % 11] = (acc.get(x % 11, 0) * 31 + x * x) % 7
    return r + sum(acc.values())


class SpeedClock:
    """Kernel probes taken on a timer: start, end and rate of each."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.rates = []
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _probe(self, signum=None, frame=None):
        kernel_step()  # the first step runs on caches the interrupted work left cold
        start = time.perf_counter()
        steps = 0
        while True:
            kernel_step()
            steps += 1
            now = time.perf_counter()
            if now - start >= SLICE_S:
                break
        self.starts.append(start)
        self.ends.append(now)
        self.rates.append(steps / (now - start))

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Probe-free seconds of [t0, t1] rescaled to reference speed, using the
        probes inside the interval and the nearest one on either side."""
        if not self.rates:
            return t1 - t0
        inside_lo = bisect.bisect_left(self.starts, t0)
        inside_hi = bisect.bisect_right(self.ends, t1)
        probing = sum(self.ends[k] - self.starts[k] for k in range(inside_lo, inside_hi))
        lo = max(inside_lo - 1, 0)
        hi = min(inside_hi + 1, len(self.rates))
        window = self.rates[lo:hi]
        return (t1 - t0 - probing) * (sum(window) / len(window)) / REFERENCE_RATE
