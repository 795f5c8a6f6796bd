"""Unit tests for the CPU resource and channels."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import spawn
from repro.sim.resources import CPU, Channel, PRIO_SOFTIRQ, PRIO_USER


def test_cpu_serializes_grants():
    sim = Simulator()
    cpu = CPU(sim)
    done = []
    cpu.consume(1.0).add_callback(lambda e: done.append(("a", sim.now)))
    cpu.consume(2.0).add_callback(lambda e: done.append(("b", sim.now)))
    sim.run()
    assert done == [("a", 1.0), ("b", 3.0)]


def test_cpu_fifo_within_priority():
    sim = Simulator()
    cpu = CPU(sim)
    order = []
    for tag in "abc":
        cpu.consume(1.0).add_callback(
            lambda e, t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_softirq_preempts_queued_user_work():
    """Interrupt work queued while the CPU is busy runs before queued
    user work (non-preemptive grant, priority dispatch)."""
    sim = Simulator()
    cpu = CPU(sim)
    order = []
    cpu.consume(1.0, PRIO_USER).add_callback(lambda e: order.append("u1"))
    cpu.consume(1.0, PRIO_USER).add_callback(lambda e: order.append("u2"))
    # softirq arrives at t=0.5, while u1 runs
    sim.schedule(0.5, lambda: cpu.consume(0.25, PRIO_SOFTIRQ).add_callback(
        lambda e: order.append("irq")))
    sim.run()
    assert order == ["u1", "irq", "u2"]


def test_cpu_speed_scales_duration():
    sim = Simulator()
    cpu = CPU(sim, speed=2.0)
    done = []
    cpu.consume(1.0).add_callback(lambda e: done.append(sim.now))
    sim.run()
    assert done == [0.5]
    assert cpu.busy_time == pytest.approx(0.5)


def test_cpu_busy_accounting_by_category():
    sim = Simulator()
    cpu = CPU(sim)
    cpu.consume(1.0, category="net")
    cpu.consume(2.0, category="http")
    cpu.consume(0.5, category="net")
    sim.run()
    assert cpu.busy_by_category["net"] == pytest.approx(1.5)
    assert cpu.busy_by_category["http"] == pytest.approx(2.0)
    assert cpu.busy_time == pytest.approx(3.5)


def test_cpu_utilization():
    sim = Simulator()
    cpu = CPU(sim)
    cpu.consume(1.0)
    sim.schedule(4.0, lambda: None)
    sim.run()
    assert cpu.utilization() == pytest.approx(0.25)


def test_cpu_zero_charge_completes():
    sim = Simulator()
    cpu = CPU(sim)
    done = []
    cpu.consume(0.0).add_callback(lambda e: done.append(sim.now))
    sim.run()
    assert done == [0.0]


def test_cpu_rejects_negative_and_bad_priority():
    sim = Simulator()
    cpu = CPU(sim)
    with pytest.raises(SimulationError):
        cpu.consume(-1.0)
    with pytest.raises(SimulationError):
        cpu.consume(1.0, priority=99)
    with pytest.raises(SimulationError):
        CPU(sim, speed=0)


def test_cpu_run_generator_sugar():
    sim = Simulator()
    cpu = CPU(sim)
    out = []

    def body():
        yield from cpu.run(2.0)
        out.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert out == [2.0]


def test_cpu_queued_count():
    sim = Simulator()
    cpu = CPU(sim)
    cpu.consume(1.0)
    cpu.consume(1.0)
    cpu.consume(1.0)
    assert cpu.queued == 2  # one executing, two waiting


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

def test_channel_put_then_get():
    sim = Simulator()
    chan = Channel(sim)
    chan.put("x")
    got = []

    def body():
        got.append((yield chan.get()))

    spawn(sim, body())
    sim.run()
    assert got == ["x"]


def test_channel_get_blocks_until_put():
    sim = Simulator()
    chan = Channel(sim)
    got = []

    def body():
        got.append(((yield chan.get()), sim.now))

    spawn(sim, body())
    sim.schedule(3.0, chan.put, "late")
    sim.run()
    assert got == [("late", 3.0)]


def test_channel_fifo_order_and_len():
    sim = Simulator()
    chan = Channel(sim)
    chan.put(1)
    chan.put(2)
    assert len(chan) == 2
    got = []

    def body():
        got.append((yield chan.get()))
        got.append((yield chan.get()))

    spawn(sim, body())
    sim.run()
    assert got == [1, 2]


def test_channel_multiple_getters_fifo():
    sim = Simulator()
    chan = Channel(sim)
    got = []

    def getter(tag):
        got.append((tag, (yield chan.get())))

    spawn(sim, getter("a"))
    spawn(sim, getter("b"))
    sim.schedule(1.0, chan.put, 1)
    sim.schedule(2.0, chan.put, 2)
    sim.run()
    assert got == [("a", 1), ("b", 2)]


# ---------------------------------------------------------------------------
# fused charges: consume_parts
# ---------------------------------------------------------------------------

def test_consume_parts_matches_back_to_back_consumes():
    """A fused grant finishes at the same instant, with the same
    per-category accounting, as issuing each part separately."""
    parts = (("parse", 0.3, None), ("cache", 0.1, None), ("build", 0.2, None))

    sim_a, sim_b = Simulator(), Simulator()
    cpu_a, cpu_b = CPU(sim_a), CPU(sim_b)

    done_a = []
    cpu_a.consume_parts(parts).add_callback(lambda e: done_a.append(sim_a.now))
    sim_a.run()

    done_b = []
    def unfused():
        for category, seconds, _bd in parts:
            yield cpu_b.consume(seconds, PRIO_USER, category)
        done_b.append(sim_b.now)
    spawn(sim_b, unfused())
    sim_b.run()

    assert done_a == done_b == [pytest.approx(0.6)]
    assert cpu_a.busy_by_category == cpu_b.busy_by_category
    assert cpu_a.busy_time == pytest.approx(cpu_b.busy_time)


def test_consume_parts_softirq_interposes_at_part_boundary():
    """Softirq work arriving mid-part still runs at the next part
    boundary, exactly where the unfused back-to-back consumes would
    have let it in."""
    order = []
    sim = Simulator()
    cpu = CPU(sim)
    cpu.consume_parts((("p1", 1.0, None), ("p2", 1.0, None))).add_callback(
        lambda e: order.append(("fused-done", sim.now)))
    sim.schedule(0.5, lambda: cpu.consume(
        0.25, PRIO_SOFTIRQ, "irq").add_callback(
            lambda e: order.append(("irq-done", sim.now))))
    sim.run()
    # irq lands at the p1/p2 boundary (t=1.0), pushing p2 to 1.25-2.25
    assert order == [("irq-done", 1.25), ("fused-done", 2.25)]
    assert cpu.busy_by_category["irq"] == pytest.approx(0.25)
    assert cpu.busy_by_category["p2"] == pytest.approx(1.0)


def test_consume_parts_continuation_fast_path_is_equivalent():
    """With nothing else queued, the part boundary short-circuits the
    FIFO bounce; a queued same-priority grant must still disable the
    short cut and run in FIFO order."""
    sim = Simulator()
    cpu = CPU(sim)
    order = []
    cpu.consume_parts((("a1", 1.0, None), ("a2", 1.0, None))).add_callback(
        lambda e: order.append(("a", sim.now)))
    cpu.consume(1.0, PRIO_USER, "b").add_callback(
        lambda e: order.append(("b", sim.now)))
    sim.run()
    # the queued grant interposes between a1 and a2, as the unfused
    # back-to-back consumes would have allowed
    assert order == [("b", 2.0), ("a", 3.0)]


def test_consume_parts_skips_zero_length_parts():
    sim = Simulator()
    cpu = CPU(sim)
    stamps = []
    done = []
    cpu.consume_parts(
        (("z0", 0.0, None), ("work", 1.0, None), ("z1", 0.0, None)),
        stamps=stamps).add_callback(lambda e: done.append(sim.now))
    sim.run()
    assert done == [1.0]
    assert stamps == [0.0, 1.0, 1.0]   # one stamp per part, in order
    assert "z0" not in cpu.busy_by_category
    assert "z1" not in cpu.busy_by_category


def test_consume_parts_all_zero_triggers_immediately():
    sim = Simulator()
    cpu = CPU(sim)
    ev = cpu.consume_parts((("z", 0.0, None),))
    assert ev.triggered
    assert cpu.busy_time == 0.0
    assert not cpu.busy


def test_consume_parts_nowait_returns_none_but_accounts():
    sim = Simulator()
    cpu = CPU(sim)
    assert cpu.consume_parts(
        (("rx", 0.5, None), ("ack", 0.25, None)),
        PRIO_SOFTIRQ, nowait=True) is None
    sim.run()
    assert cpu.busy_by_category["rx"] == pytest.approx(0.5)
    assert cpu.busy_by_category["ack"] == pytest.approx(0.25)
    assert sim.now == pytest.approx(0.75)


def test_consume_nowait_returns_none_but_accounts():
    sim = Simulator()
    cpu = CPU(sim)
    assert cpu.consume(0.5, PRIO_SOFTIRQ, "irq", nowait=True) is None
    sim.run()
    assert cpu.busy_by_category["irq"] == pytest.approx(0.5)


def test_consume_parts_rejects_negative_part():
    cpu = CPU(Simulator())
    with pytest.raises(SimulationError):
        cpu.consume_parts((("ok", 1.0, None), ("bad", -0.1, None)))


# ---------------------------------------------------------------------------
# completion wakeups: inline when provably next, the ready queue otherwise
# ---------------------------------------------------------------------------

def test_lone_waiter_resumes_without_a_bounce_event():
    """With nothing else due, a grant's waiter runs inside the grant's
    completion: one engine event per grant, none per wakeup."""
    sim = Simulator()
    cpu = CPU(sim)
    times = []

    def body():
        for _ in range(3):
            yield cpu.consume(1.0)
            times.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert times == [1.0, 2.0, 3.0]
    assert sim.events_processed == 1 + 3  # the spawn bounce + 3 grants


def test_wakeup_falls_back_when_another_cpu_completes_at_the_same_instant():
    """CPU a's completion must not resume its waiter inline while CPU
    b's completion is also due now: in (time, seq) order both
    completions fire before either bounce, so anything pa queues runs
    after pb resumes."""
    sim = Simulator()
    cpu_a, cpu_b = CPU(sim, "a"), CPU(sim, "b")
    order = []

    def pa():
        yield cpu_a.consume(1.0)
        order.append("pa")
        sim.call_soon(order.append, "pa-soon")

    def pb():
        yield cpu_b.consume(1.0)
        order.append("pb")

    spawn(sim, pa())
    spawn(sim, pb())
    sim.run()
    assert order == ["pa", "pb", "pa-soon"]


def test_wakeup_falls_back_when_ready_work_is_pending():
    """Same-instant ready work queued before the completion fires runs
    before the waiter, exactly as the bounce would have ordered it."""
    sim = Simulator()
    cpu = CPU(sim)
    order = []
    sim.schedule_at(1.0, lambda: sim.call_soon(order.append, "soon"))

    def body():
        yield cpu.consume(1.0)
        order.append("resumed")

    spawn(sim, body())
    sim.run()
    assert order == ["soon", "resumed"]


def test_wakeup_falls_back_with_several_waiters():
    sim = Simulator()
    cpu = CPU(sim)
    order = []
    done = cpu.consume(1.0)
    done.add_callback(lambda e: order.append("first"))
    done.add_callback(lambda e: order.append("second"))
    sim.schedule_at(1.0, order.append, "later-timer")
    sim.run()
    assert order == ["later-timer", "first", "second"]


def test_inline_wakeup_keeps_softirq_interposition():
    """The waiter resumed inline issues its next grant after the
    completion dispatched the softirq work queued meanwhile, so the
    softirq still runs first."""
    sim = Simulator()
    cpu = CPU(sim)
    order = []

    def body():
        yield cpu.consume(1.0)
        order.append(("p1", sim.now))
        yield cpu.consume(1.0)
        order.append(("p2", sim.now))

    spawn(sim, body())
    sim.schedule(0.5, lambda: cpu.consume(0.25, PRIO_SOFTIRQ).add_callback(
        lambda e: order.append(("irq", sim.now))))
    sim.run()
    assert order == [("p1", 1.0), ("irq", 1.25), ("p2", 2.25)]
    assert cpu.busy_time == pytest.approx(2.25)
