"""The SMP domain behind ``kernel.cpu``: routing, accounting, contention."""

import pytest

from repro.kernel.kernel import Kernel
from repro.obs.profiler import CpuProfiler
from repro.sim.process import spawn
from repro.sim.resources import CPU, PRIO_SOFTIRQ
from repro.smp.multicpu import MultiCPU, SmpDomain


@pytest.fixture
def smp_kernel(sim):
    return Kernel(sim, "smp", num_cpus=4)


def test_uniprocessor_keeps_the_plain_cpu(kernel):
    assert kernel.smp is None
    assert isinstance(kernel.cpu, CPU)
    assert kernel.num_cpus == 1


def test_domain_rejects_single_cpu(kernel):
    with pytest.raises(ValueError):
        SmpDomain(kernel, num_cpus=1)


def test_multicpu_facade_shape(smp_kernel):
    assert isinstance(smp_kernel.cpu, MultiCPU)
    assert smp_kernel.cpu.capacity == 4
    assert smp_kernel.num_cpus == 4
    assert [cpu.name for cpu in smp_kernel.cpus] == [
        f"smp.cpu{i}" for i in range(4)]
    assert [cpu.index for cpu in smp_kernel.cpus] == [0, 1, 2, 3]


def test_softirq_work_lands_on_cpu0(smp_kernel, sim):
    smp_kernel.charge_softirq(0.01, "net.rx")
    sim.run()
    assert smp_kernel.cpus[0].busy_time == pytest.approx(0.01)
    assert all(cpu.busy_time == 0.0 for cpu in smp_kernel.cpus[1:])


def test_non_process_user_work_lands_on_cpu0(smp_kernel, sim):
    smp_kernel.cpu.consume(0.01, category="callback")
    sim.run()
    assert smp_kernel.cpus[0].busy_by_category["callback"] == pytest.approx(
        0.01)


def test_process_work_routes_per_process(smp_kernel, sim):
    def body():
        yield smp_kernel.cpu.consume(0.01, category="work")

    for i in range(3):
        spawn(sim, body(), f"w{i}")
    sim.run()
    # sticky round-robin: three processes, three distinct CPUs
    for i in range(3):
        assert smp_kernel.cpus[i].busy_by_category["work"] == pytest.approx(
            0.01)
    assert smp_kernel.cpus[3].busy_time == 0.0
    # the facade aggregates across members
    assert smp_kernel.cpu.busy_time == pytest.approx(0.03)
    assert smp_kernel.cpu.busy_by_category["work"] == pytest.approx(0.03)


def test_migration_charges_the_cache_refill(smp_kernel, sim):
    gate = sim.event("gate")

    def body():
        yield smp_kernel.cpu.consume(0.01, category="work")
        yield gate
        yield smp_kernel.cpu.consume(0.01, category="work")

    proc = spawn(sim, body(), "mover")
    sim.run()
    assert smp_kernel.cpus[0].busy_by_category["work"] == pytest.approx(0.01)
    smp_kernel.pin(proc, 1)
    gate.trigger(None)
    sim.run()
    cost = smp_kernel.costs.smp_migration_cost
    assert cost > 0
    assert smp_kernel.cpus[1].busy_by_category["smp.migration"] == (
        pytest.approx(cost))
    assert smp_kernel.cpus[1].busy_by_category["work"] == pytest.approx(0.01)
    assert smp_kernel.smp.scheduler.migrations == 1


def test_utilization_divides_by_capacity(smp_kernel, sim):
    def body():
        yield smp_kernel.cpu.consume(1.0, category="work")

    spawn(sim, body(), "w")
    sim.run()
    assert sim.now == pytest.approx(1.0)
    # one of four CPUs busy the whole time -> 25% machine-wide
    assert smp_kernel.cpu.utilization() == pytest.approx(0.25)


def test_profiler_fans_out_and_attributes_per_cpu(smp_kernel, sim):
    profiler = CpuProfiler()
    smp_kernel.cpu.profiler = profiler
    assert all(cpu.profiler is profiler for cpu in smp_kernel.cpus)

    def body():
        yield smp_kernel.cpu.consume(0.01, category="work")

    for i in range(2):
        spawn(sim, body(), f"w{i}")
    sim.run()
    assert profiler.cpu_times[0] == pytest.approx(0.01)
    assert profiler.cpu_times[1] == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# contention entry points
# ---------------------------------------------------------------------------

def _scan_under_bkl(kernel, hold):
    """A fused grant: the BKL part, then a short scan charge."""
    return kernel.cpu.consume_parts(
        (kernel.smp.bkl_part(hold), ("work", 0.0001, None)))


def test_bkl_wait_spins_the_second_cpu(smp_kernel, sim):
    finished = []

    def body(name):
        yield _scan_under_bkl(smp_kernel, 0.002)
        finished.append((name, sim.now))

    a = spawn(sim, body("a"), "a")
    b = spawn(sim, body("b"), "b")
    smp_kernel.pin(a, 0)
    smp_kernel.pin(b, 1)
    sim.run()
    # a takes the lock at once; b spins out a's 2 ms hold on CPU 1
    assert finished == [("a", pytest.approx(0.0001)),
                        ("b", pytest.approx(0.0021))]
    bkl = smp_kernel.smp.bkl
    assert bkl.acquisitions == 2
    assert bkl.contended == 1
    assert "smp.bkl_wait" not in smp_kernel.cpus[0].busy_by_category
    assert smp_kernel.cpus[1].busy_by_category["smp.bkl_wait"] == (
        pytest.approx(0.002))


def test_bkl_same_cpu_is_exempt(smp_kernel, sim):
    # no current process -> both grants, and both acquisitions, run on
    # CPU 0, which cannot contend with itself
    _scan_under_bkl(smp_kernel, 0.002)
    _scan_under_bkl(smp_kernel, 0.002)
    sim.run()
    bkl = smp_kernel.smp.bkl
    assert bkl.acquisitions == 2
    assert bkl.contended == 0
    assert "smp.bkl_wait" not in smp_kernel.cpus[0].busy_by_category


def test_lazy_part_sees_the_member_cpu_running_the_grant(sim):
    """At a part boundary no process runs (current_cpu_index would say
    CPU 0); the lazy part is handed the member CPU itself."""
    kernel = Kernel(sim, "smp", num_cpus=4, cpu_speed=0.5)
    seen = []

    def lazy(cpu):
        seen.append((cpu.index, cpu.speed, sim.current_process))
        return 0.001

    def body():
        yield kernel.cpu.consume_parts(
            (("work", 0.001, None), ("lock", lazy, None)))

    proc = spawn(sim, body(), "w")
    kernel.pin(proc, 2)
    sim.run()
    assert seen == [(2, 0.5, None)]
    # the lazy part's value is baseline work, scaled by the CPU's speed
    assert kernel.cpus[2].busy_by_category["lock"] == pytest.approx(0.002)


def test_backmap_write_waits_for_the_reader_window(smp_kernel, sim):
    # a softirq hint takes the read side on CPU 0...
    assert smp_kernel.smp.backmap_read() == 0.0

    def body():
        smp_kernel.smp.backmap_write()
        yield smp_kernel.cpu.consume(0.0001, category="work")

    proc = spawn(sim, body(), "writer")
    smp_kernel.pin(proc, 1)
    sim.run()
    rw = smp_kernel.smp.backmap_rwlock
    assert rw.write_contended == 1
    assert rw.write_wait_seconds > 0
    assert smp_kernel.cpus[1].busy_by_category["smp.rwlock_wait_wr"] == (
        pytest.approx(rw.write_wait_seconds))


def test_backmap_read_waits_for_a_cross_cpu_writer(smp_kernel, sim):
    # open a write hold from CPU 1, then fire a hint (read side, CPU 0)
    # inside that window
    rw = smp_kernel.smp.backmap_rwlock
    rw.write_acquire(sim.now, 0.001, cpu=1)
    wait = smp_kernel.smp.backmap_read()
    assert wait == pytest.approx(0.001)
    assert rw.read_contended == 1
    assert smp_kernel.cpus[0].busy_by_category["smp.rwlock_wait_rd"] == (
        pytest.approx(0.001))


def test_softirq_priority_routes_to_cpu0_even_in_process_context(
        smp_kernel, sim):
    def body():
        yield smp_kernel.cpu.consume(0.01, PRIO_SOFTIRQ, "net.rx")

    proc = spawn(sim, body(), "w")
    smp_kernel.pin(proc, 2)
    sim.run()
    assert smp_kernel.cpus[0].busy_by_category["net.rx"] == pytest.approx(
        0.01)
    assert smp_kernel.cpus[2].busy_time == 0.0
