"""Discrete-event simulation engine.

The engine is deliberately small: a monotonic clock, a binary-heap calendar
of timers, one-shot :class:`Event` objects that processes can wait on, and
generator-based :class:`~repro.sim.process.Process` coroutines (defined in
a sibling module) that the engine resumes.

Everything else in the reproduction -- the simulated Linux kernel, the TCP
stack, the web servers, the httperf client -- is built from these pieces.

Time is a float in *seconds* of simulated time.  Ties are broken by a
monotonically increasing sequence number so scheduling order is stable and
runs are fully deterministic for a given seed.

Hot-path layout (see docs/performance.md, "hot-path anatomy"):

* The calendar heaps store ``(time, seq, timer)`` tuples, so sift
  comparisons are C-level tuple comparisons and never call back into
  Python (`Timer.__lt__` exists only for explicit comparisons).
* The calendar has two tiers.  Timers due at least ``FAR_DELAY`` ahead
  (TIME-WAIT expiries, idle and client timeouts, most of which are
  cancelled) wait in a *far* heap; the µs-scale CPU-grant completions
  that make up most of the traffic sift through a small *hot* heap.  A
  far timer moves into the hot heap, with its original key, just before
  it could be next, so firing order is exactly the single-heap order.
* Same-timestamp work (``call_soon``, event-trigger fan-out) goes to a
  FIFO *ready queue* instead of the heap.  Because ``now`` never
  decreases and ``seq`` always increases, the ready queue is sorted by
  ``(time, seq)`` by construction; the drain loop merges it with the
  heap so the global firing order is exactly the historical
  ``(time, seq)`` order.
* Timers whose handles never escape (event-callback dispatch, internal
  unref schedules) are recycled through a freelist instead of being
  allocated per event, and each CPU re-arms one resident completion
  timer in place (:class:`~repro.sim.resources.CPU`) instead of
  scheduling one per grant.
* Work due a fixed delay after it is queued (TIME-WAIT expiries) waits
  in a :class:`~repro.sim.delay_queue.FixedDelayQueue` behind one
  resident timer, each item under the key a timer of its own would have
  had.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    A cancelled timer stays in the calendar (removal from a binary heap
    is O(n)) but its callback is skipped when it pops, and its ``fn`` and
    ``args`` are released at once so a dead entry pins nothing.  The
    simulator tracks how many armed entries have been cancelled this way
    and compacts a heap wholesale once dead entries dominate it, so
    cancel-heavy workloads (idle-timeout sweeps re-arming per I/O) do
    not accumulate garbage until pop.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim",
                 "ready", "far", "pooled")

    def __init__(self, time: float, seq: int, fn: Callable, args: Tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim
        #: True while the timer sits in the ready queue (same-timestamp
        #: FIFO) rather than a heap; cancel accounting differs.
        self.ready = False
        #: True while the timer waits in the far heap
        self.far = False
        #: True for freelist-managed timers whose handle never escaped;
        #: recycled after firing.
        self.pooled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = self.args = None
        if self.sim is not None:
            self.sim._note_cancel(self)

    def __lt__(self, other: "Timer") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<Timer t={self.time:.6f} {state} fn={getattr(self.fn, '__name__', self.fn)!r}>"


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An Event may be triggered at most once, carrying an optional value.
    Waiters registered after the trigger fire immediately via the
    simulator's calendar (never synchronously re-entrant), preserving
    run-to-completion semantics for the code that triggered the event.

    Callbacks are stored in an insertion-ordered dict so removal
    (``AnyOf`` loser deregistration) is O(1); registering the *same*
    callable twice coalesces to one delivery, which no caller relies on.
    """

    __slots__ = ("sim", "name", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        # lazily allocated: most events get exactly one callback or
        # none, so the common case skips the dict entirely
        self._callbacks: Optional[Dict[Callable[["Event"], None], None]] = None

    def trigger(self, value: Any = None) -> None:
        """Mark the event as having occurred and wake all waiters."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            sim = self.sim
            for cb in callbacks:
                sim._call_soon_unref(cb, (self,))

    # ``succeed`` reads better at some call sites (mirrors simpy).
    succeed = trigger

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb(event)``; fires now (via calendar) if already triggered."""
        if self.triggered:
            self.sim._call_soon_unref(cb, (self,))
        elif self._callbacks is None:
            self._callbacks = {cb: None}
        else:
            self._callbacks[cb] = None

    def remove_callback(self, cb: Callable[["Event"], None]) -> None:
        """Deregister a callback previously added; no-op if absent.  O(1)."""
        callbacks = self._callbacks
        if callbacks is not None:
            callbacks.pop(cb, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered({self.value!r})" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Simulator:
    """The event calendar and clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "hello at t=1.5")
        sim.run(until=10.0)
    """

    #: compaction kicks in only for heaps at least this large ...
    COMPACT_MIN_HEAP = 256
    #: ... whose entries are more than this fraction cancelled
    COMPACT_FRACTION = 0.5
    #: timers due at least this many seconds ahead wait in the far heap
    FAR_DELAY = 0.25

    def __init__(self) -> None:
        self.now: float = 0.0
        #: hot calendar heap of ``(time, seq, Timer)`` entries
        self._heap: List[Tuple[float, int, Timer]] = []
        #: far calendar heap, same entries; every far timer is due after
        #: ``now`` (timers migrate to the hot heap before they can be next)
        self._far: List[Tuple[float, int, Timer]] = []
        #: a lower bound on the far heap's first time, +inf iff it is
        #: empty: while the hot head is earlier, the far heap is ignored
        self._far_next: float = _INF
        #: FIFO of same-timestamp timers, sorted by (time, seq) by
        #: construction (now is nondecreasing, seq is increasing)
        self._ready: List[Timer] = []
        #: index of the next unfired entry in ``_ready`` (the list is
        #: drained front-to-back and cleared when empty)
        self._ready_head: int = 0
        #: freelist of fired unref timers, reused by the internal
        #: ``_call_soon_unref`` / ``_schedule_unref`` fast paths
        self._pool: List[Timer] = []
        self._seq: int = 0
        self.events_processed: int = 0
        #: the Process whose generator is being resumed right now (None
        #: outside process context, e.g. plain timer callbacks).  Span
        #: tracing keys its nesting stacks on this, so spans from
        #: concurrently-running simulated processes never interleave.
        self.current_process: Optional[Any] = None
        #: cancelled timers still sitting in the hot heap (lazy deletion)
        self._cancelled_pending: int = 0
        #: cancelled timers still sitting in the far heap
        self._far_cancelled: int = 0
        #: cancelled timers still sitting in the ready queue
        self._ready_cancelled: int = 0
        #: times a heap was rebuilt to shed cancelled entries
        self.compactions: int = 0
        #: cancelled entries discarded by compaction (not by popping)
        self.cancelled_purged: int = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq += 1
        timer = Timer(time, self._seq, fn, args, self)
        if time - self.now < self.FAR_DELAY:
            _heappush(self._heap, (time, self._seq, timer))
        else:
            self._push_far(timer)
        return timer

    def call_soon(self, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` at the current time, after the running callback."""
        self._seq += 1
        timer = Timer(self.now, self._seq, fn, args, self)
        timer.ready = True
        self._ready.append(timer)
        return timer

    # -- internal unref variants: the Timer handle does not escape, so a
    # freelist timer can be recycled the moment it fires.  Never exposed
    # to user code (a recycled handle would alias a later schedule).
    def _call_soon_unref(self, fn: Callable, args: Tuple) -> None:
        """Internal ``call_soon`` whose timer is pooled (no handle escapes)."""
        self._seq += 1
        pool = self._pool
        if pool:
            timer = pool.pop()
            timer.time = self.now
            timer.seq = self._seq
            timer.fn = fn
            timer.args = args
            timer.ready = True
        else:
            timer = Timer(self.now, self._seq, fn, args, None)
            timer.ready = True
            timer.pooled = True
        self._ready.append(timer)

    def _schedule_unref(self, delay: float, fn: Callable, args: Tuple) -> None:
        """Internal ``schedule`` whose timer is pooled (no handle escapes)."""
        time = self.now + delay
        self._seq += 1
        pool = self._pool
        if pool:
            timer = pool.pop()
            timer.time = time
            timer.seq = self._seq
            timer.fn = fn
            timer.args = args
            timer.ready = False
        else:
            timer = Timer(time, self._seq, fn, args, None)
            timer.pooled = True
        if delay < self.FAR_DELAY:
            _heappush(self._heap, (time, self._seq, timer))
        else:
            self._push_far(timer)

    def _push_far(self, timer: Timer) -> None:
        timer.far = True
        _heappush(self._far, (timer.time, timer.seq, timer))
        if timer.time < self._far_next:
            self._far_next = timer.time

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event` bound to this simulator."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """An Event that triggers ``delay`` seconds from now."""
        ev = Event(self, name)
        self.schedule(delay, ev.trigger, value)
        return ev

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _migrate(self) -> None:
        """Move far timers that could be next into the hot heap, keys
        unchanged: every far entry due no later than the hot head (or,
        with the hot heap empty, than the first live far entry)."""
        far = self._far
        heap = self._heap
        while far and far[0][2].cancelled:
            _heappop(far)
            self._far_cancelled -= 1
        if far:
            limit = heap[0][0] if heap else far[0][0]
            while far and far[0][0] <= limit:
                entry = _heappop(far)
                timer = entry[2]
                if timer.cancelled:
                    self._far_cancelled -= 1
                    continue
                timer.far = False
                _heappush(heap, entry)
        self._far_next = far[0][0] if far else _INF

    def _head_entry(self) -> Optional[Tuple[float, int, Timer]]:
        """The calendar's next live ``(time, seq, timer)`` entry, left in
        the hot heap (after dropping cancelled heads and migrating far
        timers that could precede it); None when both heaps are empty."""
        heap = self._heap
        while True:
            if heap:
                entry = heap[0]
                if entry[2].cancelled:
                    _heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                if entry[0] < self._far_next:
                    return entry
            elif not self._far:
                return None
            self._migrate()

    def _pop_next(self) -> Optional[Timer]:
        """Remove and return the next armed timer in (time, seq) order,
        merging the ready queue with the calendar; None when all are
        empty."""
        ready = self._ready
        head = self._ready_head
        while head < len(ready) and ready[head].cancelled:
            head += 1
            self._ready_cancelled -= 1
        entry = self._head_entry()
        if head < len(ready):
            first = ready[head]
            if (entry is None or entry[0] > first.time
                    or (entry[0] == first.time and entry[1] > first.seq)):
                head += 1
                if head == len(ready):
                    ready.clear()
                    head = 0
                self._ready_head = head
                return first
        elif ready:
            ready.clear()
            head = 0
        self._ready_head = head
        if entry is None:
            return None
        return _heappop(self._heap)[2]

    def _requeue(self, timer: Timer) -> None:
        """Put back a timer popped past the run horizon."""
        if timer.ready:
            head = self._ready_head
            if head > 0 and self._ready[head - 1] is timer:
                # the entry is still physically at head-1 (the ready
                # list drains by index); just un-consume it
                self._ready_head = head - 1
            else:
                self._ready.insert(head, timer)
        else:
            _heappush(self._heap, (timer.time, timer.seq, timer))

    def _fire(self, timer: Timer) -> None:
        """Advance the clock to ``timer`` and run its callback."""
        self.now = timer.time
        self.events_processed += 1
        fn = timer.fn
        args = timer.args
        if timer.pooled:
            # recycle before the call so the callback's own unref
            # schedules can reuse the hot object immediately
            timer.fn = timer.args = None
            self._pool.append(timer)
        else:
            # detach so a cancel() after firing cannot skew the
            # cancelled-pending count (the timer has left the calendar)
            timer.sim = None
        fn(*args)

    def step(self) -> bool:
        """Pop and run the next timer.  Returns False when the calendar is empty."""
        timer = self._pop_next()
        if timer is None:
            return False
        if timer.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("calendar went backwards")
        self._fire(timer)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the calendar drains, ``until`` is reached, or
        ``max_events`` timers have fired (whichever comes first).

        A run bounded by ``max_events`` (only tests ask for one) takes
        :meth:`step` once per timer.  Otherwise the loop body is
        :meth:`_pop_next` + :meth:`_fire` inlined for the common cases
        -- this is the engine's innermost loop, and the two calls plus
        repeated attribute loads are measurable at millions of events.
        With no ready work pending, the hot head pops directly while it
        is due before the far tier, and otherwise the far timers that
        could be next migrate first; with ready work pending, a live
        ready entry due before the hot head pops directly (horizon loop
        only) and everything else takes :meth:`_pop_next`.  Both heaps
        and the ready list only ever change in place, so they are bound
        once.
        """
        if max_events is not None:
            for _ in range(max_events):
                if until is not None:
                    due = self.peek()
                    if due is None or due > until:
                        break
                if not self.step():
                    break
            else:
                return  # the budget ran out: the clock stays
            if until is not None and until > self.now:
                self.now = until
            return
        fired = 0
        pool = self._pool
        ready = self._ready
        heap = self._heap
        heappop = _heappop
        try:
            if until is None:
                # -- dedicated full-drain loop: no horizon check per
                # iteration
                while True:
                    if self._ready_head < len(ready):
                        # same-timestamp ready work pending: rare on this
                        # loop's workloads, so take the out-of-line merge
                        timer = self._pop_next()
                        if timer is None:
                            break
                    else:
                        if ready:
                            ready.clear()
                            self._ready_head = 0
                        if heap and heap[0][0] < self._far_next:
                            timer = heappop(heap)[2]
                            if timer.cancelled:
                                self._cancelled_pending -= 1
                                continue
                        elif self._far:
                            self._migrate()
                            continue
                        else:
                            break
                    fired += 1
                    self.now = timer.time
                    fn = timer.fn
                    args = timer.args
                    if timer.pooled:
                        timer.fn = timer.args = None
                        pool.append(timer)
                    else:
                        timer.sim = None
                    fn(*args)
                return
            while True:
                head = self._ready_head
                if head < len(ready):
                    # ready entries are due at ``now`` and far timers
                    # after it, so only the hot head can precede this one
                    first = ready[head]
                    if not first.cancelled and (
                            not heap or heap[0][0] > first.time
                            or (heap[0][0] == first.time
                                and heap[0][1] > first.seq)):
                        head += 1
                        if head == len(ready):
                            ready.clear()
                            head = 0
                        self._ready_head = head
                        timer = first
                    else:
                        timer = self._pop_next()
                        if timer is None:
                            break
                else:
                    if ready:
                        ready.clear()
                        self._ready_head = 0
                    if heap and heap[0][0] < self._far_next:
                        timer = heappop(heap)[2]
                        if timer.cancelled:
                            self._cancelled_pending -= 1
                            continue
                    elif self._far:
                        self._migrate()
                        continue
                    else:
                        break
                # -- inline _fire
                time = timer.time
                if time > until:
                    self._requeue(timer)
                    if until > self.now:  # a past horizon keeps the clock
                        self.now = until
                    return
                fired += 1
                self.now = time
                fn = timer.fn
                args = timer.args
                if timer.pooled:
                    # recycle before the call so the callback's own
                    # unref schedules can reuse the hot object
                    timer.fn = timer.args = None
                    pool.append(timer)
                else:
                    timer.sim = None
                fn(*args)
            if until > self.now:
                self.now = until
        finally:
            # flushed as a delta so nested run() calls stay correct; no
            # caller reads the counter mid-run
            self.events_processed += fired

    def peek(self) -> Optional[float]:
        """Time of the next armed timer, or None if the calendar is empty."""
        entry = self._head_entry()
        ready = self._ready
        head = self._ready_head
        while head < len(ready) and ready[head].cancelled:
            head += 1
            self._ready_cancelled -= 1
        if head == len(ready) and ready:
            ready.clear()
            head = 0
        self._ready_head = head
        heap_time = entry[0] if entry is not None else None
        ready_time = ready[head].time if head < len(ready) else None
        if ready_time is None:
            return heap_time
        if heap_time is None or ready_time <= heap_time:
            return ready_time
        return heap_time

    # ------------------------------------------------------------------
    # lazy-deletion compaction
    # ------------------------------------------------------------------
    def _note_cancel(self, timer: Timer) -> None:
        """Called by :meth:`Timer.cancel` for a timer still in the calendar."""
        if timer.ready:
            # the ready queue fully drains every time the clock reaches
            # its tail, so cancelled entries cannot pile up there
            self._ready_cancelled += 1
        elif timer.far:
            self._far_cancelled += 1
            far = self._far
            if (len(far) >= self.COMPACT_MIN_HEAP
                    and self._far_cancelled > self.COMPACT_FRACTION * len(far)):
                self._compact(far)
                self._far_cancelled = 0
                self._far_next = far[0][0] if far else _INF
        else:
            self._cancelled_pending += 1
            heap = self._heap
            if (len(heap) >= self.COMPACT_MIN_HEAP
                    and self._cancelled_pending
                    > self.COMPACT_FRACTION * len(heap)):
                self._compact(heap)
                self._cancelled_pending = 0

    def _compact(self, heap: List[Tuple[float, int, Timer]]) -> None:
        """Rebuild ``heap`` in place without its cancelled entries (O(n))."""
        before = len(heap)
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapq.heapify(heap)
        self.cancelled_purged += before - len(heap)
        self.compactions += 1

    @property
    def pending(self) -> int:
        """Armed (non-cancelled) timers still in the calendar."""
        return (len(self._heap) - self._cancelled_pending
                + len(self._far) - self._far_cancelled
                + (len(self._ready) - self._ready_head)
                - self._ready_cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending}>"
