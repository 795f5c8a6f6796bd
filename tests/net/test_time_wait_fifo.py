"""TIME-WAIT in one FIFO per stack fires exactly where per-entry timers did.

A stack keeps its TIME-WAIT entries in one FIFO behind one resident
engine timer, and each entry keeps the calendar key ``(expiry, seq)``
that a timer of its own would have had.  The first property plays
random histories -- closes with and without a port, in and out of
TIME-WAIT, port allocations, plain timers and same-instant work, many
of them placed exactly on expiry instants -- on a FIFO stack and on a
reference stack that schedules one engine timer per entry, and checks
that both hand out the same ports and read the same counts after every
engine event, and fire the same number of events.

The FIFO keeps fewer entries in the hot heap than per-entry timers do,
so once that heap holds ``Simulator.COMPACT_MIN_HEAP`` entries its
compactions can run at other moments.  A CPU grant's waiter resumes
inline only when no live entry sits at the hot head at the completion
instant; cancelled entries there are dropped before that test, so a
cancelled entry that one side has purged and the other has not moves
nothing.  The second property crowds the hot heap with cancelled timers
on those instants and checks that both sides fire the same timers, the
process's resumes included, in as many engine events.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.constants import SyscallError
from repro.kernel.kernel import Kernel
from repro.net.link import Network
from repro.net.stack import EPHEMERAL_HIGH, NetStack
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.resources import CPU


class PerEntryTimerStack(NetStack):
    """The reference: one ``sim.schedule`` timer per TIME-WAIT entry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._held = 0

    @property
    def time_wait_count(self) -> int:
        return self._held

    def connection_closed(self, endpoint, time_wait: bool) -> None:
        self._open_gauge.set(max(0, self._open_gauge.value - 1))
        port = endpoint.local_port if endpoint.owns_port else None
        if time_wait:
            self._held += 1
            self.counters["tcp.time_wait_entered"] += 1
            self.sim.schedule(self.time_wait_seconds, self._expire, port)
        elif port is not None:
            self.release_port(port)

    def _expire(self, port) -> None:
        self._held -= 1
        if port is not None:
            self.release_port(port)


class Closed:
    """The two fields ``connection_closed`` reads of an endpoint."""

    def __init__(self, local_port, owns_port):
        self.local_port = local_port
        self.owns_port = owns_port


#: binary fractions, so expiries land exactly on other work's instants;
#: TIME-WAIT periods below, at and above ``Simulator.FAR_DELAY``
DELAYS = (0.0, 0.125, 0.25, 0.375, 1.0)
PERIODS = (0.125, 0.25, 0.375, 1.0)
#: fresh ports left in each stack, so released ones are handed out again
FRESH_PORTS = 3
#: ``run(until=...)`` horizon step: some horizons fall on expiries
SLICE = 0.1875

steps = st.one_of(
    st.tuples(st.just("close"), st.booleans(), st.booleans()),
    st.tuples(st.just("alloc"), st.just(None), st.just(None)),
    st.tuples(st.just("timer"), st.sampled_from(DELAYS), st.just(None)),
    st.tuples(st.just("soon"), st.just(None), st.just(None)),
)
chains = st.lists(st.lists(st.tuples(st.sampled_from(DELAYS), steps),
                           min_size=1, max_size=8),
                  min_size=1, max_size=3)


def play(stack_class, period, plan, drive="step"):
    """Run ``plan`` on a fresh stack of ``stack_class``; returns the
    work log, the state after every engine event (``drive="step"``), and
    the event count.  ``drive="run"`` drains the calendar with one
    ``sim.run()``, and ``"slices"`` with ``sim.run(until=...)`` slices
    that end between and on expiry instants."""
    sim = Simulator()
    stack = stack_class(Kernel(sim, "host"), Network(sim),
                        time_wait_seconds=period)
    stack._next_port = EPHEMERAL_HIGH - FRESH_PORTS
    log = []
    states = []

    def note(tag):
        log.append((sim.now, tag, stack.time_wait_count,
                    stack.ports_available))

    def alloc():
        try:
            return stack.alloc_ephemeral_port()
        except SyscallError:
            return None

    def run_step(chain, index):
        _delay, (kind, a, b) = plan[chain][index]
        tag = (chain, index)
        if kind == "close":
            owns_port, time_wait = a, b
            port = alloc() if owns_port else None
            stack.connection_opened()
            stack.connection_closed(
                Closed(80 if port is None else port, port is not None),
                time_wait)
            note(tag + ("close", port))
        elif kind == "alloc":
            note(tag + ("alloc", alloc()))
        elif kind == "timer":
            sim.schedule(a, note, tag + ("timer",))
        else:
            sim.call_soon(note, tag + ("soon",))
        if index + 1 < len(plan[chain]):
            sim.schedule(plan[chain][index + 1][0], run_step, chain,
                         index + 1)

    for chain, steps_ in enumerate(plan):
        sim.schedule(steps_[0][0], run_step, chain, 0)
    if drive == "run":
        sim.run()
    elif drive == "slices":
        while sim.peek() is not None:
            sim.run(until=sim.now + SLICE)
            states.append((sim.now, stack.time_wait_count,
                           stack.ports_available))
    else:
        while sim.step():
            states.append((sim.now, stack.time_wait_count,
                           stack.ports_available))
            if stack_class is NetStack:
                check_fifo(sim, stack)
    return log, states, sim.events_processed


def armed(sim, timer):
    """How many calendar entries hold ``timer``."""
    return sum(1 for entry in sim._heap + sim._far if entry[2] is timer)


def check_fifo(sim, stack):
    """The FIFO's own invariants: keys strictly increase, and the
    resident timer stands under the head's key exactly when it has one."""
    keys = [(expiry, seq) for expiry, seq, _port in stack._time_wait.entries]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    timer = stack._time_wait._timer
    if keys:
        assert (timer.time, timer.seq) == keys[0]
        assert armed(sim, timer) == 1
    else:
        assert armed(sim, timer) == 0


@settings(max_examples=200, deadline=None)
@given(period=st.sampled_from(PERIODS), plan=chains,
       drive=st.sampled_from(("step", "run", "slices")))
def test_fifo_fires_where_per_entry_timers_did(period, plan, drive):
    fifo = play(NetStack, period, plan, drive)
    reference = play(PerEntryTimerStack, period, plan, drive)
    assert fifo == reference


def test_ties_keep_their_order():
    """Two entries closed at one instant expire at one instant, in close
    order, and a timer scheduled between the two closes for that instant
    fires between the two expiries."""
    sim = Simulator()
    stack = NetStack(Kernel(sim, "host"), Network(sim), time_wait_seconds=1.0)
    order = []
    first, second = (stack.alloc_ephemeral_port() for _ in range(2))
    released = stack.release_port

    def release(port):
        order.append(("expire", port))
        released(port)

    stack.release_port = release
    stack.connection_closed(Closed(first, True), time_wait=True)
    sim.schedule(1.0, order.append, ("timer",))
    stack.connection_closed(Closed(second, True), time_wait=True)
    sim.run()
    assert order == [("expire", first), ("timer",), ("expire", second)]
    assert sim.now == 1.0 and sim.events_processed == 3
    assert stack.time_wait_count == 0


class Recording(Simulator):
    """Notes every fired timer as ``(time, what it ran)``; the two
    stacks' expiry callbacks are both named ``_expire``.  Drive it with
    ``step()``: ``run()`` fires timers inline."""

    def __init__(self):
        super().__init__()
        self.fired = []

    def _fire(self, timer):
        self.fired.append((timer.time, timer.fn.__name__))
        super()._fire(timer)


def resumes(sim):
    """The process's resumes through the ready queue, its start
    included."""
    return sum(1 for _time, name in sim.fired if name == "_resume")


#: the crowd's grid: every instant is a multiple of 1/64 s, as are the
#: TIME-WAIT periods, so crowd timers, cancels, grant completions and
#: expiries share instants
TICK = 1 / 64


def play_crowd(stack_class, period, closes, rnd):
    """Close ``closes`` at the start, then arm a crowd of hot timers
    just past ``COMPACT_MIN_HEAP`` while a process runs back-to-back
    CPU grants, and cancel most of the crowd: at once, on its own
    instant (before it fires) or in between.  ``rnd`` draws the crowd
    and the grants the same way for both stacks.  Returns the simulator
    and the work log."""
    sim = Recording()
    stack = stack_class(Kernel(sim, "host"), Network(sim),
                        time_wait_seconds=period)
    stack._next_port = EPHEMERAL_HIGH - FRESH_PORTS
    cpu = CPU(sim)
    log = []
    timers = []

    def note(tag):
        log.append((sim.now, tag, stack.time_wait_count,
                    stack.ports_available))

    def close(index, owns_port, time_wait):
        try:
            port = stack.alloc_ephemeral_port() if owns_port else None
        except SyscallError:
            port = None
        stack.connection_opened()
        stack.connection_closed(
            Closed(80 if port is None else port, port is not None),
            time_wait)
        note(("close", index, port))

    for index, (at, owns_port, time_wait) in enumerate(closes):
        sim.schedule(at * TICK, close, index, owns_port, time_wait)
    armed_at = rnd.randrange(1, 4) * TICK
    offsets = [rnd.randrange(1, 16) * TICK
               for _ in range(Simulator.COMPACT_MIN_HEAP
                              + rnd.randrange(64))]

    def arm():
        for index, offset in enumerate(offsets):
            timers.append(sim.schedule(offset, note, ("crowd", index)))

    sim.schedule(armed_at, arm)
    for index, offset in enumerate(offsets):
        choice = rnd.random()
        if choice < 0.7:
            cancel_at = armed_at
        elif choice < 0.9:
            cancel_at = armed_at + offset
        elif choice < 0.95:
            cancel_at = armed_at + rnd.randrange(round(offset / TICK)) * TICK
        else:
            continue
        sim.schedule(cancel_at, lambda index=index: timers[index].cancel())
    grants = [rnd.randrange(1, 6) * TICK for _ in range(40)]

    def work():
        for duration in grants:
            yield cpu.consume(duration)
            note(("grant", duration))

    Process(sim, work())
    while sim.step():
        pass
    return sim, log


@settings(max_examples=100, deadline=None)
@given(period=st.sampled_from(PERIODS),
       closes=st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                                 st.booleans()),
                       min_size=1, max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_crowded_hot_heap_moves_only_resumes(period, closes, seed):
    fifo, fifo_log = play_crowd(NetStack, period, closes, Random(seed))
    reference, reference_log = play_crowd(PerEntryTimerStack, period,
                                          closes, Random(seed))
    assert fifo_log == reference_log
    assert fifo.fired == reference.fired
    assert fifo.events_processed == reference.events_processed


def test_a_moved_compaction_moves_no_bounce():
    """Three TIME-WAIT entries are three hot timers on the reference
    side and one on the FIFO side, so the hot heap is compacted one
    cancel apart on the two sides; the crowd timer cancelled in between
    sits dead at the hot head on one side only when the grant completes
    on its instant.  The completion drops it, so the waiter resumes
    inline on both sides and both calendars run the same events."""

    def play(stack_class):
        sim = Recording()
        stack = stack_class(Kernel(sim, "host"), Network(sim),
                            time_wait_seconds=0.125)
        cpu = CPU(sim)
        timers = []
        log = []

        def arm():
            timers.append(sim.schedule(3 * TICK, log.append, "dead"))
            for index in range(Simulator.COMPACT_MIN_HEAP - 1):
                timers.append(sim.schedule(11 * TICK, log.append, index))

        for _ in range(3):
            stack.connection_closed(Closed(80, False), time_wait=True)
        sim.schedule(TICK, arm)
        order = list(range(1, Simulator.COMPACT_MIN_HEAP))
        order.insert(172, 0)
        for index in order:
            sim.schedule(TICK, lambda index=index: timers[index].cancel())

        def work():
            yield cpu.consume(4 * TICK)
            log.append("grant")

        Process(sim, work())
        while sim.step():
            pass
        return sim, log

    fifo, fifo_log = play(NetStack)
    reference, reference_log = play(PerEntryTimerStack)
    assert fifo.compactions == reference.compactions == 1
    assert fifo_log == reference_log
    assert fifo.fired == reference.fired
    # the process's start, and no bounce
    assert resumes(fifo) == resumes(reference) == 1
    assert fifo.events_processed == reference.events_processed
