"""Unit tests for generator-based processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import (
    AnyOf,
    ProcessCrashed,
    sleep,
    spawn,
    wait,
    wait_any,
    wait_with_timeout,
)


def test_sleep_advances_time():
    sim = Simulator()
    times = []

    def body():
        yield 1.5
        times.append(sim.now)
        yield 0.5
        times.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert times == [1.5, 2.0]


def test_sleep_helper():
    sim = Simulator()
    out = []

    def body():
        yield from sleep(3)
        out.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert out == [3.0]


def test_zero_sleep_yields_control():
    sim = Simulator()
    out = []

    def body():
        yield 0
        out.append("ran")

    spawn(sim, body())
    sim.run()
    assert out == ["ran"]


def test_done_event_carries_return_value():
    sim = Simulator()

    def body():
        yield 1.0
        return "result"

    proc = spawn(sim, body())
    sim.run()
    assert proc.done.triggered
    assert proc.done.value == "result"
    assert not proc.alive


def test_wait_event_receives_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def body():
        value = yield ev
        got.append(value)

    spawn(sim, body())
    sim.schedule(2.0, ev.trigger, "payload")
    sim.run()
    assert got == ["payload"]
    assert sim.now == 2.0


def test_wait_helper():
    sim = Simulator()
    ev = sim.event()
    got = []

    def body():
        got.append((yield from wait(ev)))

    spawn(sim, body())
    sim.schedule(1.0, ev.trigger, 7)
    sim.run()
    assert got == [7]


def test_wait_already_triggered_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.trigger("early")
    got = []

    def body():
        got.append((yield ev))

    spawn(sim, body())
    sim.run()
    assert got == ["early"]
    assert sim.now == 0.0


def test_yield_from_composition():
    sim = Simulator()
    trace = []

    def inner():
        yield 1.0
        trace.append("inner")
        return 10

    def outer():
        value = yield from inner()
        trace.append(("outer", value, sim.now))

    spawn(sim, outer())
    sim.run()
    assert trace == ["inner", ("outer", 10, 1.0)]


def test_crash_propagates_loudly():
    sim = Simulator()

    def body():
        yield 1.0
        raise ValueError("boom")

    spawn(sim, body())
    with pytest.raises(ProcessCrashed):
        sim.run()


def test_negative_sleep_crashes_process():
    sim = Simulator()

    def body():
        yield -1.0

    spawn(sim, body())
    with pytest.raises(ProcessCrashed):
        sim.run()


def test_unsupported_yield_crashes_process():
    sim = Simulator()

    def body():
        yield "nonsense"

    spawn(sim, body())
    with pytest.raises(ProcessCrashed):
        sim.run()


# ---------------------------------------------------------------------------
# AnyOf / wait_any
# ---------------------------------------------------------------------------

def test_wait_any_returns_winner():
    sim = Simulator()
    a, b = sim.event("a"), sim.event("b")
    got = []

    def body():
        winner, value = yield from wait_any([a, b])
        got.append((winner.name, value, sim.now))

    spawn(sim, body())
    sim.schedule(2.0, b.trigger, "bee")
    sim.schedule(3.0, a.trigger, "aye")
    sim.run()
    assert got == [("b", "bee", 2.0)]


def test_wait_any_resumes_only_once_when_both_fire_together():
    sim = Simulator()
    a, b = sim.event("a"), sim.event("b")
    resumed = []

    def body():
        winner, _ = yield from wait_any([a, b])
        resumed.append(winner.name)
        yield 10.0  # stay alive; a second resume would corrupt this sleep

    spawn(sim, body())
    sim.schedule(1.0, a.trigger, None)
    sim.schedule(1.0, b.trigger, None)
    sim.run()
    assert resumed == ["a"]


def test_wait_any_with_pretriggered_event():
    sim = Simulator()
    a, b = sim.event("a"), sim.event("b")
    a.trigger("already")
    got = []

    def body():
        winner, value = yield from wait_any([a, b])
        got.append((winner.name, value))

    spawn(sim, body())
    sim.run()
    assert got == [("a", "already")]


def test_anyof_requires_events():
    sim = Simulator()
    with pytest.raises(Exception):
        AnyOf([])


# ---------------------------------------------------------------------------
# wait_with_timeout
# ---------------------------------------------------------------------------

def test_wait_with_timeout_event_wins():
    sim = Simulator()
    ev = sim.event()
    got = []

    def body():
        timed_out, value = yield from wait_with_timeout(sim, ev, 5.0)
        got.append((timed_out, value, sim.now))

    spawn(sim, body())
    sim.schedule(1.0, ev.trigger, "fast")
    sim.run()
    assert got == [(False, "fast", 1.0)]


def test_wait_with_timeout_expires():
    sim = Simulator()
    ev = sim.event()
    got = []

    def body():
        timed_out, value = yield from wait_with_timeout(sim, ev, 2.0)
        got.append((timed_out, value, sim.now))

    spawn(sim, body())
    sim.run()
    assert got == [(True, None, 2.0)]


def test_wait_with_timeout_none_blocks_until_event():
    sim = Simulator()
    ev = sim.event()
    got = []

    def body():
        timed_out, value = yield from wait_with_timeout(sim, ev, None)
        got.append((timed_out, value))

    spawn(sim, body())
    sim.schedule(50.0, ev.trigger, "slow")
    sim.run()
    assert got == [(False, "slow")]


def test_wait_with_timeout_zero_and_pretriggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.trigger("now")
    got = []

    def body():
        got.append((yield from wait_with_timeout(sim, ev, 0)))

    spawn(sim, body())
    sim.run()
    assert got == [(False, "now")]


# Native timed wait: each case pins the resumption order against other
# same-instant callbacks.  The expected orders are those of the original
# construction, AnyOf([event, timeout_event]): the event resumes the
# process from its own callback bounce, an expiry bounces once more.

def test_timed_wait_event_first_resumes_in_the_event_bounce():
    sim = Simulator()
    ev = sim.event()
    order = []

    def body():
        result = yield from wait_with_timeout(sim, ev, 5.0)
        order.append(("resumed", result, sim.now))

    spawn(sim, body())
    sim.schedule(1.0, ev.trigger, "v")
    sim.schedule(1.0, order.append, "same-instant")
    sim.run()
    assert order == ["same-instant", ("resumed", (False, "v"), 1.0)]
    assert sim.pending == 0  # the timeout was cancelled


def test_timed_wait_timeout_first_bounces_once():
    sim = Simulator()
    ev = sim.event()
    order = []

    def body():
        result = yield from wait_with_timeout(sim, ev, 2.0)
        order.append(("resumed", result, sim.now))

    def late_peer():
        # scheduled after the wait's timer: fires after it, but before
        # the expiry's bounce
        sim.schedule_at(2.0, order.append, "same-instant")

    spawn(sim, body())
    sim.schedule(0.5, late_peer)
    sim.run()
    assert order == ["same-instant", ("resumed", (True, None), 2.0)]
    sim.schedule(1.0, ev.trigger, "late")
    sim.run()
    assert len(order) == 2  # the expired wait left no callback behind


@pytest.mark.parametrize("trigger_first, expected", [
    (True, (False, "v")),   # event's bounce queued before the expiry's
    (False, (True, None)),  # expiry fired (and bounced) first
])
def test_timed_wait_event_and_timeout_at_the_same_instant(trigger_first,
                                                          expected):
    sim = Simulator()
    ev = sim.event()
    order = []
    if trigger_first:
        sim.schedule_at(1.0, ev.trigger, "v")

    def body():
        result = yield from wait_with_timeout(sim, ev, 1.0)
        order.append(result)
        yield 10.0  # a second resume would cut this sleep short
        order.append(sim.now)

    spawn(sim, body())
    if not trigger_first:
        # scheduled once the wait's timer is armed, so it fires after it
        sim.schedule(0.5, sim.schedule_at, 1.0, ev.trigger, "v")
    sim.run()
    assert order == [expected, 11.0]


def test_timed_wait_on_an_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.trigger("now")
    order = []

    def body():
        sim.call_soon(order.append, "queued-before-the-wait")
        result = yield from wait_with_timeout(sim, ev, 0.5)
        order.append((result, sim.now))

    spawn(sim, body())
    sim.run()
    assert order == ["queued-before-the-wait", ((False, "now"), 0.0)]
    assert sim.pending == 0


def test_two_processes_interleave():
    sim = Simulator()
    trace = []

    def ping():
        for _ in range(3):
            yield 2.0
            trace.append(("ping", sim.now))

    def pong():
        yield 1.0
        for _ in range(3):
            yield 2.0
            trace.append(("pong", sim.now))

    spawn(sim, ping())
    spawn(sim, pong())
    sim.run()
    assert trace == [
        ("ping", 2.0), ("pong", 3.0), ("ping", 4.0),
        ("pong", 5.0), ("ping", 6.0), ("pong", 7.0),
    ]
