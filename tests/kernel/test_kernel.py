"""Tests for the per-host Kernel object."""

import pytest

from repro.kernel.costs import CostModel
from repro.kernel.kernel import Kernel
from repro.sim.engine import Simulator
from repro.obs.spans import SpanTracer


def test_pids_are_unique_and_increasing():
    kernel = Kernel(Simulator(), "k")
    pids = [kernel.new_task(f"t{i}").pid for i in range(5)]
    assert pids == sorted(pids)
    assert len(set(pids)) == 5


def test_cpu_speed_applied():
    sim = Simulator()
    kernel = Kernel(sim, "slow", cpu_speed=0.5)
    kernel.cpu.consume(1.0)
    sim.run()
    assert kernel.cpu.busy_time == pytest.approx(2.0)


def test_charge_softirq_occupies_cpu():
    sim = Simulator()
    kernel = Kernel(sim, "k")
    kernel.charge_softirq(0.25, "net.rx")
    sim.run()
    assert kernel.cpu.busy_by_category["net.rx"] == pytest.approx(0.25)


def test_charge_softirq_zero_is_noop():
    sim = Simulator()
    kernel = Kernel(sim, "k")
    kernel.charge_softirq(0.0)
    assert kernel.cpu.queued == 0


def test_softirq_runs_ahead_of_user_work():
    """The paper's bursty interrupt load starves user-mode service."""
    sim = Simulator()
    kernel = Kernel(sim, "k")
    order = []
    kernel.cpu.consume(1.0).add_callback(lambda e: order.append("user1"))
    kernel.cpu.consume(1.0).add_callback(lambda e: order.append("user2"))
    sim.schedule(0.5, kernel.charge_softirq, 0.25, "irq")
    done = []
    sim.schedule(0.5, lambda: kernel.cpu.consume(0.0).add_callback(
        lambda e: done.append(sim.now)))
    sim.run()
    assert order == ["user1", "user2"]
    # the zero-length user grant queued at 0.5 ran after the irq slice
    assert done[0] >= 1.25


def test_tracer_wiring():
    tracer = SpanTracer(enabled=True)
    sim = Simulator()
    kernel = Kernel(sim, "k", tracer=tracer)
    kernel.trace("net", "hello")
    assert tracer.records("net")[0].message == "hello"


def test_default_tracer_is_null():
    kernel = Kernel(Simulator(), "k")
    kernel.trace("net", "dropped")  # no crash, no memory


def test_custom_cost_model():
    costs = CostModel().with_overrides(syscall_entry=1.0)
    kernel = Kernel(Simulator(), "k", costs=costs)
    assert kernel.costs.syscall_entry == 1.0


def test_new_task_respects_limits():
    kernel = Kernel(Simulator(), "k")
    task = kernel.new_task("t", fd_limit=7, rtsig_max=3)
    assert task.fdtable.limit == 7
    assert task.signal_queue.rtsig_max == 3


def test_new_task_default_rtsig_max_is_1024():
    """'normally set high enough (1024 by default)'."""
    kernel = Kernel(Simulator(), "k")
    assert kernel.new_task("t").signal_queue.rtsig_max == 1024
