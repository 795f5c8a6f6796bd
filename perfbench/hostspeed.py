"""Host seconds scaled to a reference host speed.

The machines this benchmark runs on are shared: a fixed loop of pure
Python can take twice as long from one second to the next as other
tenants' load and the clock frequency change.  Raw host seconds of one
run therefore say as much about the neighbours as about the program.

A :class:`ScaledClock` interleaves the measured work with short slices
of a fixed calibration workload.  At every lap it charges the time since
the last lap, scaled by ``REFERENCE_S`` over the mean calibration time
just before and just after it.  A lap that ran while the host was slow
also saw slow calibrations, so the slowdown cancels; a change in the
program leaves the calibration as it was and shows in full.  The
calibration uses only the interpreter and the standard library, never
``repro``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: calibration rounds per slice
ROUNDS = 4000
#: the calibration slice's time on the reference host: a scaled second is
#: a second of a host on which one slice takes this long.  It is close to
#: the slice's median on the 2-vCPU 2.1 GHz Xeon (Python 3.11) the
#: benchmark was tuned on, so scaled seconds read close to host seconds
#: there.
REFERENCE_S = 0.0055


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def _ticks(n: int):
    for i in range(n):
        yield i


def calibrate(timer: Callable[[], float]) -> float:
    """``timer`` seconds of one calibration slice: the interpreter work the
    simulator is made of -- small objects, attribute and method calls, a
    tuple heap, dict lookups and a generator."""
    t0 = timer()
    heap: list = []
    table: dict = {}
    for i in _ticks(ROUNDS):
        node = _Node(i & 255, i)
        heapq.heappush(heap, ((i * 7919) % 1009, i, node))
        table.setdefault(node.key, node).bump(i & 7)
        if len(heap) > 64:
            heapq.heappop(heap)
    return timer() - t0


class ScaledClock:
    """Scaled host seconds of a phase, measured lap by lap.

    ``timer`` is the phase's clock (process CPU time for single-threaded
    work, wall time where threads wait on each other).  ``profiler``, if
    given, is paused during calibrations so they stay out of the profile
    and run at unprofiled speed.
    """

    def __init__(self, timer: Callable[[], float],
                 profiler: Optional[Any] = None) -> None:
        self.timer = timer
        self.profiler = profiler
        #: unscaled seconds charged so far
        self.raw = 0.0
        #: scaled seconds charged so far
        self.scaled = 0.0
        self._cal = self._calibrate()
        self._mark = timer()

    def _calibrate(self) -> float:
        if self.profiler is not None:
            self.profiler.disable()
        try:
            return calibrate(self.timer)
        finally:
            if self.profiler is not None:
                self.profiler.enable()

    def lap(self) -> float:
        """Charge the time since the last lap; returns its scale factor."""
        work = self.timer() - self._mark
        cal = self._calibrate()
        factor = REFERENCE_S / ((self._cal + cal) / 2)
        self.raw += work
        self.scaled += work * factor
        self._cal = cal
        self._mark = self.timer()
        return factor
