"""Tests for select(): semantics and the FD_SETSIZE cap."""

import pytest

from repro.core.select_syscall import FD_SETSIZE
from repro.kernel.constants import (
    EBADF,
    EINVAL,
    POLLERR,
    POLLHUP,
    POLLIN,
    POLLOUT,
    SyscallError,
)
from repro.sim.process import spawn

from .conftest import FakeDriverFile, drive


def test_select_readable(kernel, task, sys_iface):
    f = FakeDriverFile(kernel)
    fd = task.fdtable.alloc(f)
    f.set_ready(POLLIN)
    readable, writable = drive(kernel.sim, sys_iface.select([fd], [fd], 0))
    assert readable == [fd]
    assert writable == []


def test_select_writable(kernel, task, sys_iface):
    f = FakeDriverFile(kernel)
    fd = task.fdtable.alloc(f)
    f.set_ready(POLLOUT)
    readable, writable = drive(kernel.sim, sys_iface.select([fd], [fd], 0))
    assert readable == []
    assert writable == [fd]


def test_select_zero_timeout_idle(kernel, task, sys_iface):
    f = FakeDriverFile(kernel)
    fd = task.fdtable.alloc(f)
    assert drive(kernel.sim, sys_iface.select([fd], [], 0)) == ([], [])


def test_select_blocks_until_ready(kernel, task, sys_iface):
    sim = kernel.sim
    f = FakeDriverFile(kernel)
    fd = task.fdtable.alloc(f)
    out = []

    def body():
        result = yield from sys_iface.select([fd], [], None)
        out.append((result, sim.now))

    spawn(sim, body())
    sim.schedule(1.5, f.set_ready, POLLIN)
    sim.run()
    assert out[0][0] == ([fd], [])
    assert out[0][1] >= 1.5


def test_select_timeout_expires(kernel, task, sys_iface):
    f = FakeDriverFile(kernel)
    fd = task.fdtable.alloc(f)
    result = drive(kernel.sim, sys_iface.select([fd], [], 0.5))
    assert result == ([], [])


def _select_errno(kernel, gen):
    """Run a select call expected to fail; returns the errno."""
    from repro.sim.process import ProcessCrashed

    with pytest.raises(ProcessCrashed) as err:
        drive(kernel.sim, gen)
    cause = err.value.__cause__
    assert isinstance(cause, SyscallError)
    return cause.errno_code


def test_fd_setsize_cap(kernel, task, sys_iface):
    errno = _select_errno(kernel, sys_iface.select([FD_SETSIZE], [], 0))
    assert errno == EINVAL
    assert FD_SETSIZE == 1024  # the paper's httperf assumption


def test_select_whole_call_fails_on_bad_fd(kernel, task, sys_iface):
    """Unlike poll's POLLNVAL, select fails the whole call with EBADF."""
    f = FakeDriverFile(kernel)
    fd = task.fdtable.alloc(f)
    task.fdtable.close(fd)
    errno = _select_errno(kernel, sys_iface.select([fd], [], 0))
    assert errno == EBADF


def test_bitmap_cost_scales_with_maxfd_not_count(kernel, task, sys_iface):
    """Watching one HIGH-numbered fd costs as much bitmap copying as
    watching hundreds of low ones -- select's structural flaw."""
    files = [FakeDriverFile(kernel) for _ in range(600)]
    fds = [task.fdtable.alloc(f) for f in files]
    files[0].set_ready(POLLIN)

    busy0 = kernel.cpu.busy_time
    drive(kernel.sim, sys_iface.select([fds[0]], [], 0))
    low_cost = kernel.cpu.busy_time - busy0

    busy1 = kernel.cpu.busy_time
    drive(kernel.sim, sys_iface.select([fds[0], fds[599]], [], 0))
    high_cost = kernel.cpu.busy_time - busy1
    assert high_cost > 3 * low_cost  # bitmap words for 600 fds vs 1


def test_select_empty_sets(kernel, task, sys_iface):
    assert drive(kernel.sim, sys_iface.select([], [], 0)) == ([], [])


def test_select_never_cheaper_than_poll(kernel, task, sys_iface):
    """The reason poll() exists: same driver scans plus bitmap copies."""
    files = [FakeDriverFile(kernel) for _ in range(300)]
    fds = [task.fdtable.alloc(f) for f in files]
    files[0].set_ready(POLLIN)

    busy0 = kernel.cpu.busy_time
    drive(kernel.sim, sys_iface.poll([(fd, POLLIN) for fd in fds], 0))
    poll_cost = kernel.cpu.busy_time - busy0

    busy1 = kernel.cpu.busy_time
    drive(kernel.sim, sys_iface.select(fds, [], 0))
    select_cost = kernel.cpu.busy_time - busy1
    assert select_cost >= poll_cost * 0.8  # same order; never a bargain


#: readiness of the files in the table-driven case, by fd
MASKS = (0, POLLIN, POLLOUT, POLLHUP, POLLERR, POLLIN | POLLOUT)


@pytest.mark.parametrize("readfds, writefds", [
    ([5, 3, 1, 3, 0], [2, 5, 4, 2]),
    ([4, 4, 3], [4, 0, 1]),
    ([2, 1, 0], []),
    ([], [5, 2, 4, 3]),
])
def test_select_sets_against_driver_masks(kernel, task, sys_iface,
                                          readfds, writefds):
    """Unsorted, duplicated fds, some in both sets: hangups and errors
    count as readable, errors as writable, results in ascending order."""
    files = [FakeDriverFile(kernel) for _ in MASKS]
    fds = [task.fdtable.alloc(f) for f in files]
    assert fds == list(range(len(MASKS)))
    for f, mask in zip(files, MASKS):
        f.set_ready(mask)

    readable, writable = drive(kernel.sim,
                               sys_iface.select(readfds, writefds, 0))

    want_r = [fd for fd in sorted(set(readfds))
              if files[fd].poll_mask() & (POLLIN | POLLHUP | POLLERR)]
    want_w = [fd for fd in sorted(set(writefds))
              if files[fd].poll_mask() & (POLLOUT | POLLERR)]
    assert (readable, writable) == (want_r, want_w)
    for fd in (3, 4):  # POLLHUP, POLLERR
        assert (fd in readable) == (fd in readfds)
    assert (4 in writable) == (4 in writefds)
    assert 3 not in writable


class CountingFd(int):
    """An fd that counts the equality tests made against it."""

    eq_calls = 0

    def __eq__(self, other):
        CountingFd.eq_calls += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


def test_select_host_work_is_linear_in_watched_fds(kernel, task, sys_iface):
    """One select() over n fds makes O(n) equality tests on the host,
    not one per (fd, set member) pair."""
    n = 1000
    files = [FakeDriverFile(kernel) for _ in range(n)]
    fds = [CountingFd(task.fdtable.alloc(f)) for f in files]
    files[-1].set_ready(POLLIN | POLLOUT)
    CountingFd.eq_calls = 0
    readable, writable = drive(kernel.sim, sys_iface.select(fds, fds, 0))
    assert readable == writable == [n - 1]
    assert CountingFd.eq_calls <= 2 * n
