"""Unit tests for the discrete-event engine."""

import gc
import heapq
import math
import weakref

import pytest

from repro.sim.engine import Event, SimulationError, Simulator, Timer


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list("abcde")


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    timer.cancel()
    sim.run()
    assert fired == [2]


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    sim.run()


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_beyond_last_event_advances_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=9.0)
    assert sim.now == 9.0


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_call_soon_runs_after_current_callback():
    sim = Simulator()
    order = []

    def first():
        sim.call_soon(order.append, "soon")
        order.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "soon"]
    assert sim.now == 1.0


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    seen = []

    def recurse(depth):
        seen.append(depth)
        if depth < 5:
            sim.schedule(1.0, recurse, depth + 1)

    sim.schedule(0.0, recurse, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_peek_skips_cancelled():
    sim = Simulator()
    t1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    t1.cancel()
    assert sim.peek() == 2.0


def test_peek_empty():
    assert Simulator().peek() is None


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


# ---------------------------------------------------------------------------
# lazy-deletion compaction
# ---------------------------------------------------------------------------

def test_small_heaps_never_compact():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for t in timers:
        t.cancel()
    assert sim.compactions == 0
    assert sim.pending == 0
    sim.run()
    assert sim.events_processed == 0


def test_compaction_sheds_cancelled_entries():
    sim = Simulator()
    n = Simulator.COMPACT_MIN_HEAP * 4
    timers = [sim.schedule(1.0 + i * 1e-6, lambda: None) for i in range(n)]
    cancel = timers[::2] + timers[1::4]  # 75% of the heap
    for t in cancel:
        t.cancel()
    assert sim.compactions >= 1
    assert len(sim._heap) < n  # garbage did not wait for pop
    assert sim.pending == n - len(cancel)
    assert sim.cancelled_purged > 0
    sim.run()
    assert sim.events_processed == n - len(cancel)


def test_compaction_preserves_order_and_results(monkeypatch):
    """The compacted calendar fires the same callbacks in the same
    order as a never-compacted one."""
    def run_with(min_heap):
        monkeypatch.setattr(Simulator, "COMPACT_MIN_HEAP", min_heap)
        sim = Simulator()
        order = []
        timers = [sim.schedule((i * 7919) % 1000 * 1e-3, order.append, i)
                  for i in range(512)]
        for t in timers[::3] + timers[1::3]:
            t.cancel()
        sim.run()
        return order, sim.events_processed, sim.compactions

    base_order, base_events, base_compactions = run_with(10 ** 9)
    lazy_order, lazy_events, lazy_compactions = run_with(64)
    assert base_compactions == 0
    assert lazy_compactions >= 1
    assert lazy_order == base_order
    assert lazy_events == base_events


def test_cancel_after_fire_does_not_skew_accounting():
    sim = Simulator()
    fired = []
    keep = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run(until=1.5)
    keep.cancel()  # already fired; must be a harmless no-op
    assert sim._cancelled_pending == 0
    sim.run()
    assert fired == ["a", "b"]


def test_cancelled_timer_releases_its_callback():
    """A cancelled timer may wait in the far heap for a long time; it
    must not keep its callback's target (a client process, its
    generator frame) alive meanwhile."""
    class Target:
        def fire(self, *args):
            pass

    sim = Simulator()
    bound, arg = Target(), Target()
    refs = [weakref.ref(bound), weakref.ref(arg)]
    timers = [sim.schedule(60.0, bound.fire), sim.schedule(60.0, print, arg)]
    del bound, arg
    for timer in timers:
        timer.cancel()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert sim.pending == 0


def test_pending_property_tracks_armed_timers():
    sim = Simulator()
    timers = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending == 5
    timers[0].cancel()
    timers[3].cancel()
    assert sim.pending == 3
    sim.run()
    assert sim.pending == 0


# ---------------------------------------------------------------------------
# Event
# ---------------------------------------------------------------------------

def test_event_trigger_delivers_value_to_callback():
    sim = Simulator()
    got = []
    ev = sim.event("e")
    ev.add_callback(lambda e: got.append(e.value))
    ev.trigger(42)
    sim.run()
    assert got == [42]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()


def test_callback_added_after_trigger_still_fires():
    sim = Simulator()
    got = []
    ev = sim.event()
    ev.trigger("late")
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_remove_callback():
    sim = Simulator()
    got = []
    ev = sim.event()
    cb = lambda e: got.append(1)  # noqa: E731
    ev.add_callback(cb)
    ev.remove_callback(cb)
    ev.trigger()
    sim.run()
    assert got == []


def test_remove_absent_callback_is_noop():
    sim = Simulator()
    ev = sim.event()
    ev.remove_callback(lambda e: None)


def test_timeout_event_triggers_at_right_time():
    sim = Simulator()
    ev = sim.timeout(2.5, value="done")
    times = []
    ev.add_callback(lambda e: times.append((sim.now, e.value)))
    sim.run()
    assert times == [(2.5, "done")]


def test_callbacks_never_reenter_trigger_context():
    """A callback registered on an already-triggered event runs via the
    calendar, not synchronously inside add_callback."""
    sim = Simulator()
    ev = sim.event()
    ev.trigger()
    ran = []
    ev.add_callback(lambda e: ran.append(True))
    assert ran == []  # not yet -- run-to-completion semantics
    sim.run()
    assert ran == [True]


# ---------------------------------------------------------------------------
# ready-queue / heap merge ordering
# ---------------------------------------------------------------------------

def test_ready_queue_merges_with_heap_in_time_seq_order():
    """call_soon entries and schedule_at(now) heap entries interleave in
    global (time, seq) order, exactly as a single-calendar engine would
    fire them."""
    sim = Simulator()
    order = []

    def burst():
        # alternate ready-queue and heap entries at the same timestamp;
        # seq assignment order must decide the firing order
        sim.call_soon(order.append, "soon-1")
        sim.schedule_at(sim.now, order.append, "heap-1")
        sim.call_soon(order.append, "soon-2")
        sim.schedule_at(sim.now, order.append, "heap-2")
        sim.schedule(1.0, order.append, "later")

    sim.schedule(1.0, burst)
    sim.run()
    assert order == ["soon-1", "heap-1", "soon-2", "heap-2", "later"]


class ReferenceCalendar:
    """The engine's ordering contract with none of its machinery: one
    heap of ``(time, seq)`` keys, lazy cancellation, no ready queue, no
    tiers, no freelist."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._heap = []
        self._seq = 0

    def schedule_at(self, time, fn):
        self._seq += 1
        entry = [time, self._seq, fn, False]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay, fn):
        return self.schedule_at(self.now + delay, fn)

    def call_soon(self, fn):
        return self.schedule_at(self.now, fn)

    @staticmethod
    def cancel(entry):
        entry[3] = True

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            self.peek()
            if not self._heap or (until is not None
                                  and self._heap[0][0] > until):
                if until is not None and until > self.now:
                    self.now = until
                return
            entry = heapq.heappop(self._heap)
            fired += 1
            self.events_processed += 1
            self.now = entry[0]
            entry[2]()

    def peek(self):
        while self._heap and self._heap[0][3]:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    @property
    def pending(self):
        return sum(1 for entry in self._heap if not entry[3])


#: delays straddling Simulator.FAR_DELAY (0.25 s) on both sides
DELAYS = (1e-6, 0.01, 0.2499, 0.25, 0.2501, 0.3, 1.0, 7.5, 60.0)
#: grid for absolute due times (a binary fraction: sums stay exact)
GRID = 0.125


def _drive(engine, seed, cancel, nested):
    """Run a randomized schedule on ``engine`` (``cancel`` adapts the
    handle type); returns the firing log plus observations taken after
    every run()/step() call.  Each callback's actions come from its own
    tag-seeded RNG, so two engines that fire in the same order perform
    the same actions."""
    import random

    log = []
    observed = []
    live = {}  # tag -> (due time, handle)
    counter = [0]
    depth = [0]

    def add(kind, delay=0.0):
        tag = counter[0]
        counter[0] += 1
        if tag >= 3000:
            return
        if kind == "soon":
            handle = engine.call_soon(make(tag))
            due = engine.now
        elif kind == "now":
            handle = engine.schedule_at(engine.now, make(tag))
            due = engine.now
        elif kind == "grid":
            # absolute times on a coarse grid, so timers filed in the far
            # tier long ago tie with near ones filed just before
            due = math.ceil((engine.now + delay) / GRID) * GRID
            handle = engine.schedule_at(due, make(tag))
        else:
            handle = engine.schedule(delay, make(tag))
            due = engine.now + delay
        live[tag] = (due, handle)

    def make(tag):
        def cb():
            live.pop(tag, None)
            log.append((engine.now, tag))
            rng = random.Random(seed * 100003 + tag)
            for _ in range(rng.randint(1, 3)):
                roll = rng.random()
                if roll < 0.2:
                    add("soon")
                elif roll < 0.35:
                    add("now")
                elif roll < 0.6:
                    add("later", rng.choice(DELAYS))
                elif roll < 0.8:
                    add("grid", rng.choice(DELAYS))
                elif live:
                    if roll < 0.9:
                        # cancel the earliest far timer (the far tier's
                        # head) or, failing that, the earliest of all
                        far = [(due, t) for t, (due, _h) in live.items()
                               if due - engine.now >= 0.25]
                        victim = min(far or [(d, t) for t, (d, _h)
                                             in live.items()])[1]
                    else:
                        victim = rng.choice(sorted(live))
                    cancel(live.pop(victim)[1])
            if nested and rng.random() < 0.02 and depth[0] == 0:
                depth[0] += 1
                engine.run(until=engine.now + rng.choice((0.0, 0.1, 0.6)))
                depth[0] -= 1
        return cb

    for t in (0.0, 0.0, 0.1, 0.5, 2.0, 30.0):
        engine.schedule_at(t, make(counter[0]))
        counter[0] += 1

    def observe():
        observed.append((len(log), engine.now, engine.peek(),
                         engine.pending, engine.events_processed))

    for call in ({"until": 0.3}, {"max_events": 40}, {"until": 0.3},
                 {"until": 1.0}, {"max_events": 1}, {"until": 2.0},
                 {"max_events": 200}, {}):
        engine.run(**call)
        observe()
    return log, observed


def test_ready_queue_drain_matches_reference_order():
    """Randomized interleavings of call_soon / schedule_at(now) /
    schedule(later) -- across the far tier's boundary, with cancels of
    the far tier's head, horizon stops, event budgets and nested run()
    calls -- fire in exactly the order, at exactly the times, of a
    naive single-heap calendar; peek, pending and events_processed
    agree after every run() call."""
    for seed in range(6):
        nested = seed % 2 == 1
        got = _drive(Simulator(), seed, Timer.cancel, nested)
        want = _drive(ReferenceCalendar(), seed, ReferenceCalendar.cancel,
                      nested)
        assert got[0] == want[0], f"seed {seed}: firing order diverged"
        assert got[1] == want[1], f"seed {seed}: observations diverged"
        assert len(got[0]) > 500


def test_far_tier_is_used_and_adds_no_events():
    sim = Simulator()
    fired = []
    far = [sim.schedule(1.0 + i, fired.append, i) for i in range(5)]
    near = sim.schedule(0.1, fired.append, "near")
    assert len(sim._far) == 5 and len(sim._heap) == 1
    assert sim.pending == 6 and sim.peek() == 0.1
    near.cancel()
    far[0].cancel()  # the far tier's head
    assert sim.peek() == 2.0
    sim.run(max_events=2)
    assert fired == [1, 2] and sim.events_processed == 2
    sim.run()
    assert fired == [1, 2, 3, 4] and sim.events_processed == 4


def test_ready_queue_cancel_skips_without_firing():
    sim = Simulator()
    order = []

    def burst():
        keep = sim.call_soon(order.append, "keep")
        drop = sim.call_soon(order.append, "drop")
        sim.call_soon(order.append, "tail")
        drop.cancel()
        assert keep is not drop

    sim.schedule(1.0, burst)
    sim.run()
    assert order == ["keep", "tail"]
    assert sim.events_processed == 3  # burst + keep + tail


def test_run_until_preserves_ready_work_for_next_run():
    """A horizon stop mid-burst must not lose or reorder ready entries."""
    sim = Simulator()
    order = []

    def burst():
        sim.call_soon(order.append, "a")
        sim.call_soon(order.append, "b")
        sim.schedule(1.0, order.append, "later")

    sim.schedule(1.0, burst)
    sim.run(until=1.0)
    sim.run()
    assert order == ["a", "b", "later"]


def test_events_processed_flushes_after_nested_run():
    """run() flushes its fired-count delta even when a callback runs a
    nested drain of its own."""
    sim = Simulator()

    def outer():
        inner = Simulator()
        inner.schedule(0.5, lambda: None)
        inner.run()
        assert inner.events_processed == 1

    sim.schedule(1.0, outer)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.events_processed == 2
