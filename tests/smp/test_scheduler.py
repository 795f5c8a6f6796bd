"""Process-to-CPU placement: sticky round-robin and pins."""

import pytest

from repro.kernel.kernel import Kernel
from repro.smp.scheduler import Scheduler


def make_sched(n=4):
    return Scheduler([object() for _ in range(n)])


def test_first_touch_round_robins_across_cpus():
    sched = make_sched(4)
    procs = [object() for _ in range(6)]
    targets = [sched.route(p)[0] for p in procs]
    assert targets == [0, 1, 2, 3, 0, 1]
    assert sched.assignments == 6
    assert sched.migrations == 0


def test_sticky_processes_stay_put():
    sched = make_sched(4)
    proc = object()
    first, migrated = sched.route(proc)
    assert not migrated
    for _ in range(5):
        target, migrated = sched.route(proc)
        assert target == first
        assert not migrated
    assert sched.migrations == 0
    assert sched.last_cpu(proc) == first


def test_pin_overrides_policy_and_counts_the_migration():
    sched = make_sched(4)
    proc = object()
    assert sched.route(proc) == (0, False)  # first touch lands on cpu0
    sched.pin(proc, 2)
    assert sched.pins[proc] == 2
    target, migrated = sched.route(proc)
    assert (target, migrated) == (2, True)
    assert sched.migrations == 1
    # once moved, the pin keeps it there with no further migrations
    assert sched.route(proc) == (2, False)
    assert sched.migrations == 1


def test_pin_out_of_range_raises():
    sched = make_sched(4)
    with pytest.raises(ValueError):
        sched.pin(object(), 4)
    with pytest.raises(ValueError):
        sched.pin(object(), -1)


def test_cpu_index_for_does_not_track_migrations():
    sched = make_sched(2)
    proc = object()
    idx = sched.cpu_index_for(proc)
    assert idx == sched.cpu_index_for(proc)  # stable
    assert sched.migrations == 0


def test_kernel_pin_reaches_the_scheduler(sim):
    kernel = Kernel(sim, "smp", num_cpus=2)
    proc = object()
    kernel.pin(proc, 1)
    assert kernel.smp.scheduler.pins[proc] == 1


def test_uniprocessor_pin_is_a_noop(kernel):
    kernel.pin(object(), 0)  # no SMP domain; must not raise
    assert kernel.smp is None
