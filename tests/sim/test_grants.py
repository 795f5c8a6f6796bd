"""The CPU grant contract: a process is its own grant's waiter.

A grant issued by a running process returns the ``GRANT`` marker; the
process yields it at once and the CPU resumes the process itself, inline
when nothing else is due at the completion instant and through one
ready-queue bounce otherwise.  The property below pins that this is only
a cheaper route to the same schedule: on random mixes of plain and fused
grants (zero-length and lazy parts included), softirq ``nowait``
charges, timers and same-instant ``call_soon`` work, every process
resumes at the same times and in the same order as in a reference run
whose grants take the Event path (issued with no current process and
yielded as Events).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.process import GRANT, spawn
from repro.sim.resources import CPU, PRIO_SOFTIRQ, PRIO_USER

#: binary fractions, so sums stay exact and completions tie often
DURATIONS = (0.0, 0.125, 0.25, 0.5)

durations = st.sampled_from(DURATIONS)
parts = st.lists(st.tuples(st.sampled_from(("plain", "lazy")), durations),
                 min_size=1, max_size=4)
steps = st.lists(st.one_of(
    st.tuples(st.just("grant"), durations),
    st.tuples(st.just("parts"), parts),
    st.tuples(st.just("softirq"), durations),
    st.tuples(st.just("soon"), st.just(None)),
    st.tuples(st.just("sleep"), st.sampled_from((0.0, 0.125, 0.375))),
), max_size=12)
scenarios = st.fixed_dictionaries({
    "cpus": st.integers(min_value=1, max_value=2),
    "procs": st.lists(st.tuples(st.integers(min_value=0, max_value=1),
                                st.sampled_from((0.0, 0.125)), steps),
                      min_size=1, max_size=3),
    "timers": st.lists(st.tuples(st.sampled_from((0.0, 0.125, 0.25, 0.375,
                                                  0.5, 1.0)),
                                 st.integers(min_value=0, max_value=1),
                                 durations, st.booleans()),
                       max_size=6),
})


def play(scenario, event_path):
    """Run ``scenario``; returns the log of resumes, lazy evaluations,
    timer and ready-queue work, and each CPU's accounting."""
    sim = Simulator()
    cpus = [CPU(sim, f"cpu{i}") for i in range(scenario["cpus"])]
    log = []

    def issue(charge):
        if not event_path:
            return charge()
        # the reference: the same grant, issued with no process running,
        # so it takes the Event path
        proc = sim.current_process
        sim.current_process = None
        try:
            return charge()
        finally:
            sim.current_process = proc

    def lazy(tag, seconds):
        def evaluate(cpu):
            log.append(("lazy", tag, sim.now))
            return seconds
        return evaluate

    def body(name, cpu, start, plan):
        yield start
        for i, (kind, arg) in enumerate(plan):
            tag = (name, i)
            if kind == "grant":
                yield issue(lambda: cpu.consume(arg, PRIO_USER, "user"))
            elif kind == "parts":
                fused = tuple(
                    (f"p{j}", lazy(tag + (j,), s) if how == "lazy" else s,
                     None)
                    for j, (how, s) in enumerate(arg))
                yield issue(lambda: cpu.consume_parts(fused, PRIO_USER))
            elif kind == "softirq":
                cpu.consume(arg, PRIO_SOFTIRQ, "irq", nowait=True)
            elif kind == "soon":
                sim.call_soon(log.append, ("soon", tag, sim.now))
            else:
                yield arg
            log.append(("resumed", tag, sim.now))

    for n, (which, start, plan) in enumerate(scenario["procs"]):
        cpu = cpus[which % len(cpus)]
        spawn(sim, body(f"p{n}", cpu, start, plan), f"p{n}")

    def fire(n, cpu, seconds, soon):
        log.append(("timer", n, sim.now))
        cpu.consume(seconds, PRIO_SOFTIRQ, "irq", nowait=True)
        if soon:
            sim.call_soon(log.append, ("timer-soon", n, sim.now))

    for n, (at, which, seconds, soon) in enumerate(scenario["timers"]):
        sim.schedule_at(at, fire, n, cpus[which % len(cpus)], seconds, soon)
    sim.run()
    return log, [(cpu.busy_time, cpu.busy_by_category) for cpu in cpus]


@given(scenarios)
@settings(max_examples=200, deadline=None)
def test_process_grants_resume_as_the_event_path_would(scenario):
    assert play(scenario, event_path=False) == play(scenario,
                                                    event_path=True)


def test_a_process_grant_returns_the_marker_and_others_an_event():
    sim = Simulator()
    cpu = CPU(sim)
    got = []

    def body():
        marker = cpu.consume(0.5)
        got.append(marker)
        yield marker
        marker = cpu.consume_parts((("a", 0.25, None), ("b", 0.25, None)))
        got.append(marker)
        yield marker

    spawn(sim, body())
    outside = cpu.consume(0.5)
    sim.run()
    assert got == [GRANT, GRANT]
    assert isinstance(outside, Event) and outside.triggered
    assert cpu.consume(0.5, nowait=True) is None


def test_all_zero_parts_return_a_triggered_event_to_a_process():
    sim = Simulator()
    cpu = CPU(sim)
    seen = []

    def body():
        done = cpu.consume_parts((("z", 0.0, None),))
        seen.append(done.triggered)
        yield done
        seen.append(sim.now)

    spawn(sim, body())
    sim.run()
    assert seen == [True, 0.0]


def test_yielding_anything_else_while_a_grant_is_pending_fails():
    """A process that issues a grant and then sleeps would otherwise be
    resumed twice: by the grant and by the sleep."""
    sim = Simulator()
    cpu = CPU(sim)
    resumed = []

    def body():
        cpu.consume(1.0)
        yield 2.0
        resumed.append(sim.now)

    spawn(sim, body())
    with pytest.raises(SimulationError, match="grant is pending"):
        sim.run()
    assert resumed == []


def test_a_second_grant_before_yielding_the_first_fails():
    sim = Simulator()
    cpu = CPU(sim)

    def body():
        cpu.consume(1.0)
        yield cpu.consume(1.0)

    spawn(sim, body())
    with pytest.raises(SimulationError, match="while waiting on one"):
        sim.run()


def test_the_marker_of_a_finished_grant_cannot_be_yielded_again():
    sim = Simulator()
    cpu = CPU(sim)

    def body():
        marker = cpu.consume(1.0)
        yield marker
        yield marker

    spawn(sim, body())
    with pytest.raises(SimulationError, match="unsupported"):
        sim.run()
    assert sim.now == 1.0
