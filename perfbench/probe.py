"""Speed probe: a fixed piece of pure-Python work timed between ops.

A shared host runs the benchmark's process at a speed that changes from
second to second (on the 2-vCPU machine this was written on, the same
work took 1.0x to 1.7x its best time, switching every few seconds). A latency
divided by the probe time measured right around it is nearly free of
that: ``scaled_ns`` returns the latency at the reference speed, the one at
which a probe takes ``REFERENCE_NS``. The probe mixes the work the
package does: ``Fraction`` arithmetic, hashing into a dict and sorting.

The probe is benchmark code; a change to the package cannot change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's time on an unloaded host of the kind the figures were first
# taken on (Python 3.11, x86-64): with it, scaled latencies read as the
# milliseconds that host gives at its best.
REFERENCE_NS = 2_000_000
# Probe again once this much time has passed since the last probe.
EVERY_NS = 20_000_000


def _work():
    seen = {}
    total = Fraction(0)
    for i in range(1, 440):
        x = Fraction(i * 7 % 101 + 1, i % 13 + 1)
        total += x
        seen[x] = i
    sorted(seen)
    return total


def measure():
    """Time one probe, in nanoseconds."""
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0


def scaled_ns(ns, before, after):
    """``ns`` at the reference speed, from the probes either side of it."""
    return ns * 2 * REFERENCE_NS / (before + after)


class Probes:
    """Probes taken between ops: ``take()`` before the first op and after
    the last, ``due()`` after each op, which probes once ``EVERY_NS`` has
    passed since the last probe. ``mark()`` before an op names the last
    probe before it; ``scale(mark, ns)`` rescales its latency by that
    probe and the next one."""

    def __init__(self):
        self.times = []
        self._last = 0

    def take(self):
        self.times.append(measure())
        self._last = time.perf_counter_ns()

    def due(self):
        if time.perf_counter_ns() - self._last >= EVERY_NS:
            self.take()

    def mark(self):
        return len(self.times) - 1

    def scale(self, mark, ns):
        return scaled_ns(ns, self.times[mark], self.times[mark + 1])
