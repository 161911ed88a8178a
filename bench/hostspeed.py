"""Correction of wall times for the host's changing CPU speed.

On the reference machine (a 2-vCPU VM) the probe below takes about 0.33 ms
or about 0.6 ms, flipping every second or so with no steal time reported,
and one linearize op timed back to back alternates between about 39 ms and
65 ms in step with it.  A sampler runs the probe from a SIGALRM handler every
``TICK_S`` while the benchmark measures, and a wall-clock interval is scaled
by ``REF_PROBE_S`` over the probe cost seen in or around it.  Reported times
are therefore seconds at the reference speed: the probe's fast state on the
reference machine.  Work that falin adds or removes changes them; the host's
speed does not.

The probe uses only the interpreter and ``fractions``, never falin, so a
change to falin cannot move it.  Garbage collection is off while it runs, so
that it never collects falin's garbage on falin's behalf.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

TICK_S = 0.025
NEIGHBOURS = 4
REF_PROBE_S = 320e-6   # the probe in the fast state of the reference machine


def probe() -> Fraction:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        key = (i % 7, i % 5)
        seen[key] = seen.get(key, 0) + acc
    return acc


class HostSpeed:
    """Probe costs sampled over time; use as a context manager while measuring."""

    def __init__(self):
        self.at = array("d")      # end time of each probe
        self.cost = array("d")    # its duration

    def _tick(self, signum, frame):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.at.append(end)
        self.cost.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(signal.SIGALRM, None)

    def scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the probe cost during [start, end].

        An interval that holds a few probes uses their mean, the time average
        of the host's speed.  A shorter one, such as a millisecond op, lies in
        one speed state, so it uses the median of the ``NEIGHBOURS`` probes on
        either side, which ignores a probe slowed by an interrupt.
        """
        lo = bisect_left(self.at, start)
        hi = bisect_right(self.at, end)
        if hi - lo >= NEIGHBOURS:
            return REF_PROBE_S * (hi - lo) / sum(self.cost[lo:hi])
        lo, hi = max(0, lo - NEIGHBOURS), min(len(self.at), hi + NEIGHBOURS)
        return REF_PROBE_S / statistics.median(self.cost[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """The interval's length at the reference speed."""
        return (end - start) * self.scale(start, end)
