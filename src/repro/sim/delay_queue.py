"""A FIFO of work due a fixed delay after it is queued, behind one timer.

It keeps the engine's calendar keys and tier rule, and lives beside the
engine rather than in it so that only the code that queues such work
(the TCP stack's TIME-WAIT) loads it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Tuple

from .engine import SimulationError, Simulator, Timer


class FixedDelayQueue:
    """Items that each fire ``fn(item)`` a fixed ``delay`` after they are
    appended, in append order, behind one resident timer.

    An item fires exactly where ``sim.schedule(delay, fn, item)`` at its
    append would have fired, ties included: the append takes the seq
    that schedule would have taken, so the item keeps the calendar key
    ``(time, seq)`` of its own timer.  Every item waits the same
    ``delay`` and the clock never runs backwards, so the queue is sorted
    by that key; the resident timer always stands under the head's key,
    and each firing pops one item and re-arms under the next head's own
    key, never a fresh seq.

    What the queue saves is a Timer, a heap entry and an args tuple per
    item.  What it cannot keep is the calendar's shape: it holds one
    entry where per-item timers hold one each, and it arms that entry in
    the tier the distance to the head picks, where a per-item timer stays
    in the tier its append picked until it migrates.  The heaps'
    lengths, and with them the moments compaction runs, can therefore
    differ, which no engine event notices (docs/performance.md, "Where
    the event count could move").
    """

    __slots__ = ("sim", "delay", "fn", "entries", "_timer")

    def __init__(self, sim: Simulator, delay: float,
                 fn: Callable[[Any], None]):
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.sim = sim
        #: fixed for the queue's life: the order rests on it
        self.delay = delay
        self.fn = fn
        #: ``(time, seq, item)`` in calendar-key order
        self.entries: Deque[Tuple[float, int, Any]] = deque()
        #: stands under the head's key while the queue is not empty;
        #: never cancelled
        self._timer = Timer(0.0, 0, self._expire, ())

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, item: Any) -> None:
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        time = sim.now + self.delay
        entries = self.entries
        entries.append((time, seq, item))
        if len(entries) == 1:
            self._arm(time, seq)

    def _expire(self) -> None:
        entries = self.entries
        item = entries.popleft()[2]
        if entries:
            time, seq, _item = entries[0]
            self._arm(time, seq)
        self.fn(item)

    def _arm(self, time: float, seq: int) -> None:
        """Stand the resident timer under ``(time, seq)``, in the tier
        :meth:`Simulator.schedule_at` would pick now."""
        timer = self._timer
        timer.time = time
        timer.seq = seq
        sim = self.sim
        if time - sim.now < sim.FAR_DELAY:
            heappush(sim._heap, (time, seq, timer))
        else:
            sim._push_far(timer)
