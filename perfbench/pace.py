"""The pace of the machine, read off a fixed reference workload.

On a shared machine the speed of one core changes by up to a factor of two
within seconds, as other tenants' work comes and goes.  The CPU time of a
process moves with its wall time, so neither is steady.  The benchmark
therefore runs a fixed pure-Python workload, the *reference*, that does
what the program does most: Fraction arithmetic, tuple-keyed dicts and
sorting.  It runs before a timed unit, after it, and every ``TICK_S`` of
wall time during it, from a timer signal.  Each stretch of the unit between
two references is scaled by how much slower the references around it ran
than ``NOMINAL_S``:

    paced = stretch * NOMINAL_S / mean(reference before, reference after)

A unit's paced time is the sum over its stretches, and reads as the
seconds the unit would take on a core where the reference takes
``NOMINAL_S``.  Time spent in the references is left out of both the
unit's wall time and its paced time.  The reference does not use the
program, so a change to the program never changes the scale.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# About the reference's median time on a quiet core of the two-core x86-64
# machine the benchmark was defined on (CPython 3.11): the scale of every
# paced time.
NOMINAL_S = 0.0065
# Wall time between two references inside a timed unit.
TICK_S = 0.25
# Runs of the reference before the first measurement.
WARM_UP = 10


def reference() -> int:
    """A fixed mix of Fraction arithmetic, tuple-keyed dicts and sorting."""
    counts: dict[tuple[int, int, int], int] = {}
    total = Fraction(0)
    for i in range(2500):
        key = (i % 17, i % 5, -i % 3)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7 + 1, i % 11 + 1)
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    return len(ranked) + total.denominator % 7


def reference_s() -> float:
    """One run of the reference, with the collector off so that the
    program's pending collections stay the program's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Times one unit at a time: its wall time and its paced time.

    ``clock()`` is ``time.perf_counter`` less the time spent in references,
    for spans that should see only the program.
    """

    def __init__(self) -> None:
        # Let the interpreter specialise the reference's code before any
        # child is forked, so that the first reference of a child is not slower.
        for _ in range(WARM_UP):
            reference()
        self.in_references = 0.0
        self._active = self._busy = False
        self._mark = self._last = 0.0
        self._wall = self._paced = 0.0
        self._installed = False

    def clock(self) -> float:
        return time.perf_counter() - self.in_references

    def _reference(self) -> float:
        start = time.perf_counter()
        took = reference_s()
        self.in_references += time.perf_counter() - start
        return took

    def _stretch(self) -> None:
        """Close the stretch since the last reference and open the next."""
        stretch = time.perf_counter() - self._mark
        ref = self._reference()
        self._wall += stretch
        self._paced += stretch * NOMINAL_S / ((self._last + ref) / 2)
        self._last = ref
        self._mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        # A tick that lands after the unit ended, or inside a reference, is dropped.
        if self._active and not self._busy:
            self._busy = True
            try:
                self._stretch()
            finally:
                self._busy = False

    def measure(self, fn):
        """Run fn(); return (its result, wall time, paced time)."""
        if not self._installed:
            signal.signal(signal.SIGALRM, self._tick)
            self._installed = True
        self._wall = self._paced = 0.0
        self._last = self._reference()
        self._mark = time.perf_counter()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
        self._busy = True
        self._stretch()
        self._busy = False
        return result, self._wall, self._paced
