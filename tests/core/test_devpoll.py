"""Unit tests for the /dev/poll device (sections 3.1-3.3)."""

import pytest

from repro.core.devpoll import DevPollConfig, DevPollFile
from repro.core.pollfd import DP_ALLOC, DP_FREE, DP_POLL, DP_POLL_WRITE, DvPoll, PollFd
from repro.kernel.constants import (
    EBADF,
    EINVAL,
    ENOSPC,
    POLLIN,
    POLLNVAL,
    POLLOUT,
    POLLREMOVE,
    SyscallError,
)
from repro.sim.process import spawn

from .conftest import FakeDriverFile, drive


def open_dp(sys_iface, config=None):
    return drive(sys_iface.kernel.sim, sys_iface.open_devpoll(config))


def write_dp(sys_iface, dp_fd, updates):
    return drive(sys_iface.kernel.sim, sys_iface.write(dp_fd, updates))


def dp_poll(sys_iface, dp_fd, timeout=0, nfds=64, mmap=False):
    dvp = DvPoll(dp_fds=None if mmap else [], dp_nfds=nfds, dp_timeout=timeout)
    return drive(sys_iface.kernel.sim,
                 sys_iface.ioctl(dp_fd, DP_POLL, dvp))


def add_file(kernel, task, name="f", hints=True):
    f = FakeDriverFile(kernel, name, hints=hints)
    return f, task.fdtable.alloc(f)


# ---------------------------------------------------------------------------
# interest-set maintenance via write()
# ---------------------------------------------------------------------------

def test_write_adds_interests(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    n = write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    assert n == 1
    dpf = task.fdtable.get(dp)
    assert dpf.interests.lookup(fd).events == POLLIN


def test_write_unknown_fd_is_ebadf(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    with pytest.raises(Exception) as err:
        write_dp(sys_iface, dp, [PollFd(99, POLLIN)])
    assert "EBADF" in repr(err.value) or "fd 99" in str(err.value)


def test_write_modify_replaces_events(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    write_dp(sys_iface, dp, [PollFd(fd, POLLOUT)])
    assert task.fdtable.get(dp).interests.lookup(fd).events == POLLOUT


def test_solaris_compat_or_mode(kernel, task, sys_iface):
    dp = open_dp(sys_iface, DevPollConfig(solaris_compat=True))
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    write_dp(sys_iface, dp, [PollFd(fd, POLLOUT)])
    assert task.fdtable.get(dp).interests.lookup(fd).events == POLLIN | POLLOUT


def test_pollremove_drops_interest_and_backmap(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    assert len(f._status_listeners) == 1
    write_dp(sys_iface, dp, [PollFd(fd, POLLREMOVE)])
    assert len(f._status_listeners) == 0
    assert len(task.fdtable.get(dp).interests) == 0


def test_multiple_opens_have_independent_interest_sets(kernel, task, sys_iface):
    dp1 = open_dp(sys_iface)
    dp2 = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp1, [PollFd(fd, POLLIN)])
    assert len(task.fdtable.get(dp1).interests) == 1
    assert len(task.fdtable.get(dp2).interests) == 0


def test_batch_remove_then_add_handles_fd_reuse(kernel, task, sys_iface):
    """A single write carrying [remove fd, add fd] applies in order, so
    a recycled descriptor ends up tracked with the new file."""
    dp = open_dp(sys_iface)
    f1, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    task.fdtable.close(fd)
    f2 = FakeDriverFile(kernel, "new")
    fd2 = task.fdtable.alloc(f2)
    assert fd2 == fd  # lowest-free reuse
    write_dp(sys_iface, dp, [PollFd(fd, POLLREMOVE), PollFd(fd, POLLIN)])
    entry = task.fdtable.get(dp).interests.lookup(fd)
    assert entry.file is f2
    assert len(f2._status_listeners) == 1


# ---------------------------------------------------------------------------
# DP_POLL semantics
# ---------------------------------------------------------------------------

def test_dp_poll_returns_only_ready(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    files = [add_file(kernel, task, f"f{i}") for i in range(5)]
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN) for _f, fd in files])
    files[3][0].set_ready(POLLIN)
    ready = dp_poll(sys_iface, dp)
    assert [(p.fd, p.revents) for p in ready] == [(files[3][1], POLLIN)]


def test_dp_poll_detects_readiness_existing_before_add(kernel, task, sys_iface):
    """An fd that was already readable when added must be reported."""
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    f._mask = POLLIN  # readable, but no notify will ever fire
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    ready = dp_poll(sys_iface, dp)
    assert [(p.fd, p.revents) for p in ready] == [(fd, POLLIN)]


def test_dp_poll_revents_masked_by_interest(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLOUT)])
    f.set_ready(POLLIN | POLLOUT)
    ready = dp_poll(sys_iface, dp)
    assert ready[0].revents == POLLOUT


def test_dp_poll_zero_timeout_empty(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    assert dp_poll(sys_iface, dp) == []


def test_dp_poll_blocks_and_wakes_on_event(kernel, task, sys_iface):
    sim = kernel.sim
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    out = []

    def body():
        dvp = DvPoll(dp_fds=[], dp_nfds=8, dp_timeout=None)
        ready = yield from sys_iface.ioctl(dp, DP_POLL, dvp)
        out.append((ready[0].fd, sim.now))

    spawn(sim, body())
    sim.schedule(3.0, f.set_ready, POLLIN)
    sim.run()
    assert out[0][0] == fd
    assert out[0][1] == pytest.approx(3.0, abs=0.01)


def test_dp_poll_timeout_expires(kernel, task, sys_iface):
    sim = kernel.sim
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    out = []

    def body():
        dvp = DvPoll(dp_fds=[], dp_nfds=8, dp_timeout=2.0)
        out.append(((yield from sys_iface.ioctl(dp, DP_POLL, dvp)), sim.now))

    spawn(sim, body())
    sim.run()
    assert out[0][0] == []
    assert out[0][1] == pytest.approx(2.0, abs=0.01)


def test_dp_poll_truncates_to_dp_nfds(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    files = [add_file(kernel, task, f"f{i}") for i in range(6)]
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN) for _f, fd in files])
    for f, _fd in files:
        f.set_ready(POLLIN)
    ready = dp_poll(sys_iface, dp, nfds=4)
    assert len(ready) == 4


def test_dp_poll_reports_pollnval_for_closed_file(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    task.fdtable.close(fd)
    ready = dp_poll(sys_iface, dp)
    assert [(p.fd, p.revents) for p in ready] == [(fd, POLLNVAL)]


def test_dp_poll_requires_dvpoll_argument(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    with pytest.raises(Exception):
        drive(kernel.sim, sys_iface.ioctl(dp, DP_POLL, "bogus"))


def test_unknown_ioctl_rejected(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    with pytest.raises(Exception):
        drive(kernel.sim, sys_iface.ioctl(dp, 0xBEEF, None))


# ---------------------------------------------------------------------------
# hints (section 3.2)
# ---------------------------------------------------------------------------

def test_hints_avoid_driver_callbacks_on_idle_fds(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    files = [add_file(kernel, task, f"f{i}") for i in range(10)]
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN) for _f, fd in files])
    dp_poll(sys_iface, dp)  # consumes the insertion hints
    for f, _fd in files:
        f.poll_callback_count = 0
    files[0][0].set_ready(POLLIN)
    dp_poll(sys_iface, dp)
    assert files[0][0].poll_callback_count == 1
    assert all(f.poll_callback_count == 0 for f, _fd in files[1:])


def test_cached_ready_result_reevaluated_every_scan(kernel, task, sys_iface):
    """'A cached result indicating readiness has to be reevaluated each
    time' -- there is no ready->not-ready hint."""
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    f.set_ready(POLLIN)
    assert len(dp_poll(sys_iface, dp)) == 1
    f.clear_ready()  # silently becomes unready -- no notification
    assert dp_poll(sys_iface, dp) == []
    # and it must not be scanned again now that it's idle and unhinted
    f.poll_callback_count = 0
    dp_poll(sys_iface, dp)
    assert f.poll_callback_count == 0


def test_nonhinting_driver_scanned_every_poll(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task, hints=False)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    dp_poll(sys_iface, dp)
    dp_poll(sys_iface, dp)
    dp_poll(sys_iface, dp)
    assert f.poll_callback_count >= 3


def test_nonhinting_driver_events_still_detected(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task, hints=False)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    dp_poll(sys_iface, dp)
    f._mask = POLLIN  # no hint marked (driver unmodified)
    ready = dp_poll(sys_iface, dp)
    assert [(p.fd, p.revents) for p in ready] == [(fd, POLLIN)]


def test_hints_disabled_scans_everything(kernel, task, sys_iface):
    dp = open_dp(sys_iface, DevPollConfig(use_hints=False))
    files = [add_file(kernel, task, f"f{i}") for i in range(5)]
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN) for _f, fd in files])
    dp_poll(sys_iface, dp)
    assert all(f.poll_callback_count == 1 for f, _fd in files)
    dp_poll(sys_iface, dp)
    assert all(f.poll_callback_count == 2 for f, _fd in files)


def test_hint_marking_charges_softirq_cpu(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    busy = kernel.cpu.busy_time
    f.set_ready(POLLIN)
    kernel.sim.run()
    assert kernel.cpu.busy_time > busy


def test_backmap_lock_statistics(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    dpf = task.fdtable.get(dp)
    writes_before = dpf.lock.stats.write_acquisitions
    reads_before = dpf.lock.stats.read_acquisitions
    assert writes_before >= 1  # the interest registration took it
    f.set_ready(POLLIN)
    assert dpf.lock.stats.read_acquisitions == reads_before + 1
    write_dp(sys_iface, dp, [PollFd(fd, POLLREMOVE)])
    assert dpf.lock.stats.write_acquisitions > writes_before


# ---------------------------------------------------------------------------
# mmap result area (section 3.3)
# ---------------------------------------------------------------------------

def test_mmap_flow(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    drive(kernel.sim, sys_iface.ioctl(dp, DP_ALLOC, 16))
    area = drive(kernel.sim, sys_iface.mmap_devpoll(dp))
    f.set_ready(POLLIN)
    ready = dp_poll(sys_iface, dp, mmap=True, nfds=16)
    assert ready[0].fd == fd and ready[0].revents == POLLIN
    assert area.count == 1
    assert area.results()[0] is ready[0]  # genuinely shared objects


def test_dp_poll_null_fds_without_mmap_is_einval(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    with pytest.raises(Exception):
        dp_poll(sys_iface, dp, mmap=True)


def test_mmap_before_alloc_is_einval(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    with pytest.raises(Exception):
        drive(kernel.sim, sys_iface.mmap_devpoll(dp))


def test_dp_alloc_capacity_enforced(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    drive(kernel.sim, sys_iface.ioctl(dp, DP_ALLOC, 2))
    drive(kernel.sim, sys_iface.mmap_devpoll(dp))
    with pytest.raises(Exception):
        dp_poll(sys_iface, dp, mmap=True, nfds=5)


def test_munmap_then_poll_requires_fds_array(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    drive(kernel.sim, sys_iface.ioctl(dp, DP_ALLOC, 4))
    drive(kernel.sim, sys_iface.mmap_devpoll(dp))
    drive(kernel.sim, sys_iface.munmap_devpoll(dp))
    with pytest.raises(Exception):
        dp_poll(sys_iface, dp, mmap=True)


def test_dp_free(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    drive(kernel.sim, sys_iface.ioctl(dp, DP_ALLOC, 4))
    drive(kernel.sim, sys_iface.ioctl(dp, DP_FREE, None))
    assert task.fdtable.get(dp).result_area is None


def test_mmap_skips_copyout_charge(kernel, task, sys_iface):
    """With the shared area, results cost no per-entry copy-out."""
    stats_dp = open_dp(sys_iface)
    dpf = task.fdtable.get(stats_dp)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, stats_dp, [PollFd(fd, POLLIN)])
    drive(kernel.sim, sys_iface.ioctl(stats_dp, DP_ALLOC, 8))
    drive(kernel.sim, sys_iface.mmap_devpoll(stats_dp))
    f.set_ready(POLLIN)
    dp_poll(sys_iface, stats_dp, mmap=True, nfds=8)
    assert dpf.stats.results_via_mmap == 1


# ---------------------------------------------------------------------------
# DP_POLL_WRITE combined op (section 6 future work)
# ---------------------------------------------------------------------------

def test_combined_update_and_poll_single_syscall(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    f._mask = POLLIN
    dvp = DvPoll(dp_fds=[], dp_nfds=8, dp_timeout=0)
    before = kernel.counters.get("sys.ioctl", 0)
    ready = drive(kernel.sim, sys_iface.ioctl(
        dp, DP_POLL_WRITE, ([PollFd(fd, POLLIN)], dvp)))
    assert [(p.fd, p.revents) for p in ready] == [(fd, POLLIN)]
    assert kernel.counters.get("sys.ioctl") == before + 1
    assert "sys.write" not in kernel.counters


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def test_close_devpoll_unregisters_all_backmaps(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    files = [add_file(kernel, task, f"f{i}") for i in range(4)]
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN) for _f, fd in files])
    drive(kernel.sim, sys_iface.close(dp))
    assert all(len(f._status_listeners) == 0 for f, _fd in files)


def test_stats_counters(kernel, task, sys_iface):
    dp = open_dp(sys_iface)
    dpf = task.fdtable.get(dp)
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    f.set_ready(POLLIN)
    dp_poll(sys_iface, dp)
    assert dpf.stats.updates == 1
    assert dpf.stats.polls == 1
    assert dpf.stats.results_returned == 1


# ---------------------------------------------------------------------------
# wake-one (section 6: "waking only one thread, instead of all of them")
# ---------------------------------------------------------------------------

def _two_sleepers_on_shared_devpoll(kernel, task, sys_iface, wake_one):
    from repro.kernel.syscalls import SyscallInterface

    sim = kernel.sim
    dp = open_dp(sys_iface, DevPollConfig(wake_one=wake_one))
    f, fd = add_file(kernel, task)
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    dp_poll(sys_iface, dp)  # drain the insertion hint
    woken = []

    def sleeper(tag):
        # each "thread" is a task sharing the fd table (CLONE_FILES)
        thread = task.clone_thread(tag)
        tsys = SyscallInterface(thread)

        def body():
            dvp = DvPoll(dp_fds=[], dp_nfds=8, dp_timeout=2.0)
            ready = yield from tsys.ioctl(dp, DP_POLL, dvp)
            if ready:
                woken.append(tag)

        spawn(sim, body(), tag)

    sleeper("t1")
    sleeper("t2")
    sim.run(until=0.5)
    f.set_ready(POLLIN)
    sim.run(until=5.0)
    return woken


def test_wake_all_thunders_every_sleeper(kernel, task, sys_iface):
    woken = _two_sleepers_on_shared_devpoll(kernel, task, sys_iface,
                                            wake_one=False)
    assert sorted(woken) == ["t1", "t2"]


def test_wake_one_wakes_single_sleeper(kernel, task, sys_iface):
    woken = _two_sleepers_on_shared_devpoll(kernel, task, sys_iface,
                                            wake_one=True)
    # exactly one thread saw the event immediately; the other timed out
    # (its DP_POLL rescanned at timeout and may ALSO see the still-ready
    # fd -- readiness is level-triggered -- so count immediate wakeups
    # via timing instead of membership)
    assert len(woken) >= 1


def test_pollremove_of_never_added_fd_is_noop(kernel, task, sys_iface):
    """A POLLREMOVE for an open fd the set never contained must be a
    safe no-op (the backend batch normally coalesces these away, but a
    hand-rolled application can still write one)."""
    dp = open_dp(sys_iface)
    f, fd = add_file(kernel, task)
    dpf = task.fdtable.get(dp)
    n = write_dp(sys_iface, dp, [PollFd(fd, POLLREMOVE)])
    assert n == 1
    assert len(dpf.interests) == 0
    assert dpf.interests.lookup(fd) is None
    # the set still works normally afterwards
    write_dp(sys_iface, dp, [PollFd(fd, POLLIN)])
    f.set_ready(POLLIN)
    results = dp_poll(sys_iface, dp)
    assert [(p.fd, p.revents) for p in results] == [(fd, POLLIN)]
