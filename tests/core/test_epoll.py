"""Unit tests for the simulated epoll instance (repro.core.epoll)."""

import pytest

from repro.core.epoll import EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD, EPOLLET
from repro.kernel.constants import POLLIN, POLLNVAL, POLLOUT

from .conftest import FakeDriverFile, drive


def ep_create(sys_iface):
    return drive(sys_iface.kernel.sim, sys_iface.epoll_create())


def ep_ctl(sys_iface, ep, op, fd, events=0):
    return drive(sys_iface.kernel.sim,
                 sys_iface.epoll_ctl(ep, op, fd, events))


def ep_wait(sys_iface, ep, max_events=64, timeout=0):
    return drive(sys_iface.kernel.sim,
                 sys_iface.epoll_wait(ep, max_events, timeout))


def add_file(kernel, task, name="f", hints=True):
    f = FakeDriverFile(kernel, name, hints=hints)
    return f, task.fdtable.alloc(f)


# ---------------------------------------------------------------------------
# basic add / wait
# ---------------------------------------------------------------------------

def test_ctl_add_then_wait_reports_ready(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    assert ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN) == 0
    f.set_ready(POLLIN)
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]
    epf = task.fdtable.get(ep)
    assert epf.stats.ctl_adds == 1
    assert epf.stats.events_returned == 1


def test_wait_empty_set_times_out(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    assert ep_wait(sys_iface, ep) == []


def test_level_triggered_rereports_until_not_ready(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    f.set_ready(POLLIN)
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]
    # still ready, no new hint: the ready cache re-check reports it again
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]
    epf = task.fdtable.get(ep)
    assert epf.stats.ready_checks_cached >= 1
    # drained without a hint (section 3.2: ready->unready is silent)
    f.clear_ready()
    assert ep_wait(sys_iface, ep) == []


def test_edge_triggered_reports_once_per_hint(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN | EPOLLET)
    f.set_ready(POLLIN)
    # the EPOLLET flag never leaks into revents
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]
    # still readable, but the edge was consumed: silent until a new hint
    assert ep_wait(sys_iface, ep) == []
    f.set_ready(POLLIN)  # fires the driver notification again
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]


def test_ctl_mod_changes_the_mask(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    f.set_ready(POLLOUT)
    assert ep_wait(sys_iface, ep) == []  # POLLOUT masked off
    ep_ctl(sys_iface, ep, EPOLL_CTL_MOD, fd, POLLOUT)
    assert ep_wait(sys_iface, ep) == [(fd, POLLOUT)]
    assert task.fdtable.get(ep).stats.ctl_mods == 1


def test_ctl_del_removes_interest(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    ep_ctl(sys_iface, ep, EPOLL_CTL_DEL, fd)
    f.set_ready(POLLIN)
    assert ep_wait(sys_iface, ep) == []
    epf = task.fdtable.get(ep)
    assert epf.stats.ctl_dels == 1
    assert len(epf.interests) == 0


# ---------------------------------------------------------------------------
# errno semantics
# ---------------------------------------------------------------------------

def test_duplicate_add_is_eexist(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    with pytest.raises(Exception) as err:
        ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    assert "EEXIST" in str(err.value)


def test_mod_and_del_of_missing_fd_are_enoent(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    for op in (EPOLL_CTL_MOD, EPOLL_CTL_DEL):
        with pytest.raises(Exception) as err:
            ep_ctl(sys_iface, ep, op, fd, POLLIN)
        assert "ENOENT" in str(err.value)


def test_add_of_unopened_fd_is_ebadf(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    with pytest.raises(Exception) as err:
        ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, 99, POLLIN)
    assert "EBADF" in str(err.value)


def test_unknown_op_is_einval(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    with pytest.raises(Exception) as err:
        ep_ctl(sys_iface, ep, 77, fd, POLLIN)
    assert "EINVAL" in str(err.value)


def test_epoll_calls_on_non_epoll_fd_are_einval(kernel, task, sys_iface):
    f, fd = add_file(kernel, task)
    with pytest.raises(Exception) as err:
        ep_ctl(sys_iface, fd, EPOLL_CTL_ADD, fd, POLLIN)
    assert "EINVAL" in str(err.value)
    with pytest.raises(Exception) as err:
        ep_wait(sys_iface, fd)
    assert "EINVAL" in str(err.value)


def test_wait_requires_positive_max_events(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    with pytest.raises(Exception) as err:
        ep_wait(sys_iface, ep, max_events=0)
    assert "EINVAL" in str(err.value)


# ---------------------------------------------------------------------------
# lifecycle: fd reuse and automatic cleanup on close
# ---------------------------------------------------------------------------

def test_fd_reuse_add_replaces_stale_interest(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    old, fd = add_file(kernel, task, "old")
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    task.fdtable.close(fd)
    new = FakeDriverFile(kernel, "new")
    fd2 = task.fdtable.alloc(new)
    assert fd2 == fd  # the number was reused
    # no EEXIST: the stale interest is silently replaced
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    epf = task.fdtable.get(ep)
    assert len(epf.interests) == 1
    assert epf.interests.lookup(fd).file is new
    new.set_ready(POLLIN)
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]


def test_closed_fd_auto_removed_without_pollnval(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    task.fdtable.close(fd)
    # unlike /dev/poll there is no POLLREMOVE bookkeeping: the next
    # scan collects the dead interest by itself, reporting nothing
    results = ep_wait(sys_iface, ep)
    assert results == []
    assert not any(revents & POLLNVAL for _fd, revents in results)
    epf = task.fdtable.get(ep)
    assert epf.stats.auto_removed_closed == 1
    assert len(epf.interests) == 0


# ---------------------------------------------------------------------------
# max_events truncation
# ---------------------------------------------------------------------------

def test_truncated_edge_triggered_events_stay_cached(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    files = []
    for i in range(3):
        f, fd = add_file(kernel, task, f"f{i}")
        ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN | EPOLLET)
        f.set_ready(POLLIN)
        files.append((f, fd))
    first = ep_wait(sys_iface, ep, max_events=2)
    assert len(first) == 2
    # the unreported third entry was NOT edge-consumed: it is still in
    # the ready cache and surfaces on the next wait without a new hint
    second = ep_wait(sys_iface, ep, max_events=2)
    assert len(second) == 1
    reported = {fd for fd, _rev in first} | {fd for fd, _rev in second}
    assert reported == {fd for _f, fd in files}
    assert ep_wait(sys_iface, ep, max_events=2) == []


# ---------------------------------------------------------------------------
# cost scaling: checks follow activity, not interest-set size
# ---------------------------------------------------------------------------

def test_idle_interests_are_never_rechecked(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    files = [add_file(kernel, task, f"idle{i}") for i in range(5)]
    for _f, fd in files:
        ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    epf = task.fdtable.get(ep)
    ep_wait(sys_iface, ep)  # drains the five add-time hints
    checks = (epf.stats.ready_checks_cached + epf.stats.ready_checks_hinted
              + epf.stats.ready_checks_nohint)
    assert checks == 5
    before = [f.poll_callback_count for f, _fd in files]
    ep_wait(sys_iface, ep)  # nothing hinted, nothing cached: zero checks
    after = [f.poll_callback_count for f, _fd in files]
    assert after == before
    new_checks = (epf.stats.ready_checks_cached
                  + epf.stats.ready_checks_hinted
                  + epf.stats.ready_checks_nohint)
    assert new_checks == checks


def test_hintless_drivers_are_always_rechecked(kernel, task, sys_iface):
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task, hints=False)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    epf = task.fdtable.get(ep)
    ep_wait(sys_iface, ep)
    ep_wait(sys_iface, ep)
    # an unmodified driver posts no hints, so correctness requires a
    # poll callback on every wait (the section 3.2 opt-in trade-off)
    assert epf.stats.ready_checks_nohint >= 1
    f._mask = POLLIN  # becomes ready *silently* (no notify)
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]


def test_new_interest_on_a_hintless_driver_is_checked_once(kernel, task,
                                                           sys_iface):
    """The first wait after EPOLL_CTL_ADD checks a hint-less interest for
    the add's hint and not again as hint-less: one check, one event."""
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task, hints=False)
    f._mask = POLLIN
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    assert ep_wait(sys_iface, ep) == [(fd, POLLIN)]
    stats = task.fdtable.get(ep).stats
    assert (stats.ready_checks_hinted, stats.ready_checks_nohint) == (1, 0)
    assert f.poll_callback_count == 1


# ---------------------------------------------------------------------------
# blocking wait
# ---------------------------------------------------------------------------

def test_blocking_wait_is_woken_by_driver_hint(kernel, task, sys_iface):
    sim = kernel.sim
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    ep_wait(sys_iface, ep)  # drain the add-time hint
    start = sim.now
    sim.schedule(0.05, f.set_ready, POLLIN)
    results = drive(sim, sys_iface.epoll_wait(ep, 8, None))
    assert results == [(fd, POLLIN)]
    assert sim.now >= start + 0.05


def test_blocking_wait_times_out(kernel, task, sys_iface):
    sim = kernel.sim
    ep = ep_create(sys_iface)
    f, fd = add_file(kernel, task)
    ep_ctl(sys_iface, ep, EPOLL_CTL_ADD, fd, POLLIN)
    ep_wait(sys_iface, ep)  # drain the add-time hint
    start = sim.now
    assert drive(sim, sys_iface.epoll_wait(ep, 8, 0.02)) == []
    assert sim.now >= start + 0.02
