"""Machine-speed probe: a fixed reference loop timed while an invocation runs.

On a shared machine a core's speed drifts by up to 1.5x within seconds as
other tenants load it, so wall times of the same code spread widely from
run to run.  The probe times a short fixed loop just before and just after
an invocation and, from a real-time interval timer, every PERIOD_S during
it.  The invocation's wall time (less the probe's own time) over the mean
loop time cancels most of that drift.  The loop does not depend on
ringheat, so only a change in ringheat moves the ratio.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
#: about 0.25 ms on a 2-core x86 virtual machine
LOOP_ITERATIONS = 400


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, o):
        return _Pair(self.a * o.a, self.a * o.b + self.b * o.a)

    def __add__(self, o):
        return _Pair(self.a + o.a, self.b + o.b)


def reference_loop() -> float:
    """Wall time of a fixed loop of dual-number style object arithmetic.

    Of the loops tried (this one, numpy scalar indexing as in the Thomas
    sweep, and both mixed), this one tracked the drift best on
    `solve-fine` and about as well as the others on `verify-reference`.
    """
    x, y = _Pair(1.0, 0.5), _Pair(0.999, 0.001)
    t0 = time.perf_counter()
    for _ in range(LOOP_ITERATIONS):
        x = x * y + y
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the reference loop around one invocation at a time and, unless
    `during` is false, during it as well.

    Sampling during an invocation needs the main thread and SIGALRM, which
    nothing else in the process uses.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.loops: list = []
        self._busy = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.loops.append(reference_loop())
        self._busy += time.perf_counter() - t0

    def start(self):
        self.loops = []
        self._sample()
        self._busy = 0.0
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling during the invocation; return the probe's own time since `start`."""
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        busy = self._busy
        self._sample()
        return busy

    def loop_time(self) -> float:
        """Mean reference-loop time of the last invocation."""
        return statistics.fmean(self.loops)
