"""The system-call interface.

Server and client process bodies drive the simulated kernel exclusively
through a :class:`SyscallInterface`, using ``yield from``::

    sys = SyscallInterface(task)
    fd, addr = yield from sys.accept(listen_fd)
    data = yield from sys.read(fd, 4096)

Every call charges the host CPU its entry cost plus operation-specific
costs from the :class:`~repro.kernel.costs.CostModel`; blocking calls
suspend the process on the relevant wait queue.  This is where the
paper's central quantity -- system calls consumed per served request --
is accounted (``task.kernel.counters`` tallies per-syscall counts).

``poll``/``/dev/poll`` and the network syscalls are implemented in
:mod:`repro.core` and :mod:`repro.net`; this module dispatches to them
through names bound when the first interface is built, since both
packages import this one.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..sim.process import wait_with_timeout
from ..sim.resources import PRIO_USER
from .constants import (
    EAGAIN,
    EBADF,
    EINVAL,
    ENOTSOCK,
    F_GETFL,
    F_GETOWN,
    F_GETSIG,
    F_SETFL,
    F_SETOWN,
    F_SETSIG,
    NSIG,
    SIGRTMIN,
    SyscallError,
)
from .file import File
from .signals import Siginfo
from .task import Task

# repro.core and repro.net import this module's package, so their names
# cannot be imported above: the first SyscallInterface binds them, and no
# syscall runs an import statement
DevPollFile = EpollFile = SocketFile = UnixSocketFile = None
require_socket = sys_poll = sys_select = None


def _bind_late_names() -> None:
    global DevPollFile, EpollFile, SocketFile, UnixSocketFile
    global require_socket, sys_poll, sys_select
    from ..core.devpoll import DevPollFile
    from ..core.epoll import EpollFile
    from ..core.poll_syscall import sys_poll
    from ..core.select_syscall import sys_select
    from ..net.socket import SocketFile, require_socket
    from ..net.unix import UnixSocketFile


class SyscallInterface:
    """Bound to one task; exposes the syscalls the paper's software uses."""

    def __init__(self, task: Task):
        if sys_poll is None:
            _bind_late_names()
        self.task = task
        self.kernel = task.kernel
        self.costs = task.kernel.costs
        self.sim = task.kernel.sim
        self._dequeue_hist = self.kernel.metrics.histogram(
            "rtsig.dequeue_batch")

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _charge(self, seconds: float, category: str = "syscall"):
        if seconds > 0:
            yield self.kernel.cpu.consume(seconds, PRIO_USER, category)

    def _enter(self, key: str):
        """Count one syscall under its counter ``key`` (``"sys.read"``,
        spelled out at each call site so no name is built per call) and
        charge the entry cost."""
        self.kernel.counters[key] += 1
        yield from self._charge(self.costs.syscall_entry, "syscall")

    def cpu_work(self, seconds: float, category: str = "user"):
        """Charge userspace computation (parsing, bookkeeping, logging)."""
        yield from self._charge(seconds, category)

    def _file(self, fd: int) -> File:
        return self.task.fdtable.get(fd)

    # ------------------------------------------------------------------
    # generic file syscalls
    # ------------------------------------------------------------------
    def read(self, fd: int, nbytes: int):
        file = self._file(fd)
        yield from self._enter("sys.read")
        result = yield from file.do_read(self.task, nbytes)
        return result

    def write(self, fd: int, data: bytes):
        file = self._file(fd)
        kernel = self.kernel
        if file.fuse_write_entry and data:
            # files that opt in (the /dev/poll interest list) take the
            # syscall-entry charge fused with their own update charge
            kernel.counters["sys.write"] += 1
            result = yield from file.do_write(
                self.task, data, entry_part=kernel.fused.entry_part)
            return result
        yield from self._enter("sys.write")
        result = yield from file.do_write(self.task, data)
        return result

    def close(self, fd: int):
        file = self.task.fdtable.lookup(fd)
        if file is None:
            raise SyscallError(EBADF, f"close({fd})")
        kernel = self.kernel
        kernel.counters["sys.close"] += 1
        yield kernel.cpu.consume_parts(kernel.fused.close_parts, PRIO_USER)
        self.task.fdtable.close(fd)
        return 0

    def dup(self, fd: int):
        """Duplicate a descriptor at the lowest free slot; both share the
        same file description (flags, offsets, fasync state)."""
        file = self._file(fd)
        yield from self._enter("sys.dup")
        yield from self._charge(self.costs.fd_alloc, "dup")
        return self.task.fdtable.alloc(file)

    def dup2(self, old_fd: int, new_fd: int):
        """Duplicate ``old_fd`` onto ``new_fd``, closing any previous
        occupant, as dup2(2) does."""
        file = self._file(old_fd)
        yield from self._enter("sys.dup2")
        yield from self._charge(self.costs.fd_alloc, "dup")
        if old_fd == new_fd:
            return new_fd
        self.task.fdtable.install_at(new_fd, file)
        return new_fd

    def ioctl(self, fd: int, op: int, arg=None):
        file = self._file(fd)
        yield from self._enter("sys.ioctl")
        result = yield from file.do_ioctl(self.task, op, arg)
        return result

    def fcntl(self, fd: int, op: int, arg: int = 0):
        file = self._file(fd)
        kernel = self.kernel
        kernel.counters["sys.fcntl"] += 1
        yield kernel.cpu.consume_parts(kernel.fused.fcntl_parts, PRIO_USER)
        if op == F_GETFL:
            return file.f_flags
        if op == F_SETFL:
            file.f_flags = int(arg)
            return 0
        if op == F_SETOWN:
            file.async_owner = self.task if arg == self.task.pid else arg
            if not isinstance(file.async_owner, Task):
                raise SyscallError(EINVAL, "F_SETOWN expects a pid or Task")
            file.async_fd = fd
            return 0
        if op == F_GETOWN:
            return file.async_owner.pid if file.async_owner else 0
        if op == F_SETSIG:
            if arg != 0 and not 1 <= arg < NSIG:
                raise SyscallError(EINVAL, f"bad F_SETSIG signal {arg}")
            file.async_sig = int(arg)
            file.async_fd = fd
            return 0
        if op == F_GETSIG:
            return file.async_sig
        raise SyscallError(EINVAL, f"unsupported fcntl op {op}")

    # ------------------------------------------------------------------
    # event interfaces (implemented in repro.core)
    # ------------------------------------------------------------------
    def poll(self, interests: Sequence[Tuple[int, int]],
             timeout: Optional[float], deadline: Optional[float] = None,
             build_part=None, tail_parts=()):
        """Classic ``poll(2)``: ``interests`` is ``[(fd, events), ...]``.

        Returns ``[(fd, revents), ...]`` for ready descriptors only.
        ``timeout`` in seconds; ``None`` blocks forever, ``0`` polls.

        The server event backends fuse their own userspace work into
        the call: ``build_part`` (the pollfd array build) leads the
        grant of syscall entry, copyin and first scan, ``tail_parts``
        (the revents scan) follow the copyout, and ``deadline`` -- an
        absolute time -- becomes the relative timeout at the end of the
        build, as a caller computing it itself would have.
        """
        self.kernel.counters["sys.poll"] += 1
        result = yield from sys_poll(
            self.task, interests, timeout, deadline_abs=deadline,
            build_part=build_part, tail_parts=tail_parts)
        return result

    def select(self, readfds: Sequence[int], writefds: Sequence[int] = (),
               timeout: Optional[float] = None,
               deadline: Optional[float] = None,
               build_part=None, tail_parts=()):
        """Classic ``select(2)``; returns ``(readable, writable)``.

        Capped at FD_SETSIZE (1024) descriptors -- the very limit that
        forced the authors to modify httperf (section 5).  The fused
        keywords mirror :meth:`poll`.
        """
        self.kernel.counters["sys.select"] += 1
        result = yield from sys_select(
            self.task, readfds, writefds, timeout, deadline_abs=deadline,
            build_part=build_part, tail_parts=tail_parts)
        return result

    def open_devpoll(self, config=None):
        """Open ``/dev/poll``; returns its fd (section 3.1).

        ``config`` is an optional :class:`~repro.core.devpoll.DevPollConfig`
        (the ablation benchmarks use it to disable hints etc.).
        """
        yield from self._enter("sys.open")
        yield from self._charge(self.costs.fd_alloc, "open")
        file = DevPollFile(self.kernel, config=config)
        fd = self.task.fdtable.alloc(file)
        return fd

    def mmap_devpoll(self, fd: int):
        """``mmap()`` on an opened /dev/poll fd after DP_ALLOC (section 3.3).

        Returns the shared result-area object.
        """
        file = self._file(fd)
        yield from self._enter("sys.mmap")
        if not isinstance(file, DevPollFile):
            raise SyscallError(EINVAL, "mmap only modelled for /dev/poll")
        return file.mmap(self.task)

    def munmap_devpoll(self, fd: int):
        file = self._file(fd)
        yield from self._enter("sys.munmap")
        if not isinstance(file, DevPollFile):
            raise SyscallError(EINVAL, "munmap only modelled for /dev/poll")
        file.munmap(self.task)
        return 0

    # ------------------------------------------------------------------
    # epoll
    # ------------------------------------------------------------------
    def epoll_create(self):
        """Create an epoll instance; returns its fd.

        The epoll interface postdates the paper by months; see
        :mod:`repro.core.epoll` for what it borrows from /dev/poll.
        """
        yield from self._enter("sys.epoll_create")
        yield from self._charge(self.costs.fd_alloc, "open")
        file = EpollFile(self.kernel)
        fd = self.task.fdtable.alloc(file)
        return fd

    def epoll_ctl(self, epfd: int, op: int, fd: int, events: int = 0):
        """Add/modify/delete one interest of an epoll instance."""
        file = self._file(epfd)
        if not isinstance(file, EpollFile):
            yield from self._enter("sys.epoll_ctl")
            raise SyscallError(EINVAL, f"epoll_ctl: fd {epfd} is not epoll")
        # the epoll instance charges the entry fused with its own work
        self.kernel.counters["sys.epoll_ctl"] += 1
        result = yield from file.ctl(self.task, op, fd, events)
        return result

    def epoll_wait(self, epfd: int, max_events: int,
                   timeout: Optional[float] = None):
        """Wait for readiness; returns ``[(fd, revents), ...]``."""
        file = self._file(epfd)
        yield from self._enter("sys.epoll_wait")
        if not isinstance(file, EpollFile):
            raise SyscallError(EINVAL, f"epoll_wait: fd {epfd} is not epoll")
        result = yield from file.do_wait(self.task, max_events, timeout)
        return result

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def sigwaitinfo(self, sigset: Iterable[int], timeout: Optional[float] = None):
        """Dequeue one pending signal from ``sigset``; block if none.

        Returns a :class:`Siginfo`, or ``None`` on timeout.
        """
        infos = yield from self.sigtimedwait4(sigset, 1, timeout)
        return infos[0] if infos else None

    def sigtimedwait4(self, sigset: Iterable[int], max_signals: int,
                      timeout: Optional[float] = None):
        """The paper's proposed batch dequeue: up to ``max_signals`` at once.

        With ``max_signals=1`` this is ``sigtimedwait``/``sigwaitinfo``.
        Returns a possibly-empty list of :class:`Siginfo` (empty = timeout).
        """
        if max_signals < 1:
            raise SyscallError(EINVAL, "max_signals must be >= 1")
        sigset = frozenset(sigset)
        yield from self._enter("sys.sigtimedwait")
        queue = self.task.signal_queue
        while True:
            if queue.has_pending(sigset):
                infos: List[Siginfo] = queue.dequeue_many(sigset, max_signals)
                yield from self._charge(
                    self.costs.rtsig_dequeue * len(infos), "rtsig.dequeue")
                self._dequeue_hist.record(len(infos))
                return infos
            if timeout == 0:
                return []
            wake = self.task.signal_wq.wait_event()
            timed_out, _ = yield from wait_with_timeout(self.sim, wake, timeout)
            if timed_out:
                return []
            # Loop: another sigwaiter may have raced us to the queue.

    def rt_queue_depth(self) -> int:
        """Simulation-only probe of the task's queued RT-signal count.

        Real applications infer load from SIGIO overflow or from their own
        dequeue rate; the hybrid server uses those, but tests and traces
        want the ground truth.
        """
        return self.task.signal_queue.rt_depth

    def flush_rt_signals(self):
        """Model the SIG_DFL trick that discards queued RT signals during
        overflow recovery (section 2).  Returns the number discarded."""
        yield from self._enter("sys.flush_signals")
        return self.task.signal_queue.flush_rt()

    # ------------------------------------------------------------------
    # sockets (implemented in repro.net.socket)
    # ------------------------------------------------------------------
    def socket(self):
        kernel = self.kernel
        if kernel.net is None:
            raise SyscallError(ENOTSOCK, "no network stack attached")
        kernel.counters["sys.socket"] += 1
        yield kernel.cpu.consume_parts(kernel.fused.socket_parts, PRIO_USER)
        file = SocketFile(self.kernel)
        fd = self.task.fdtable.alloc(file)
        return fd

    def bind(self, fd: int, port: int):
        sock = require_socket(self._file(fd))
        yield from self._enter("sys.bind")
        sock.bind(port)
        return 0

    def listen(self, fd: int, backlog: int):
        sock = require_socket(self._file(fd))
        yield from self._enter("sys.listen")
        sock.listen(backlog)
        return 0

    def setsockopt(self, fd: int, level: int, optname: int, value: int = 1):
        """Set a socket option; SOL_SOCKET/SO_REUSEPORT is the one that
        exists here (prefork workers sharding one listening port)."""
        sock = require_socket(self._file(fd))
        yield from self._enter("sys.setsockopt")
        yield from self._charge(self.costs.setsockopt_op, "setsockopt")
        sock.set_option(level, optname, value)
        return 0

    def accept(self, fd: int):
        """Returns ``(new_fd, remote_addr)``; blocks unless O_NONBLOCK."""
        sock = require_socket(self._file(fd))
        yield from self._enter("sys.accept")
        child = yield from sock.do_accept(self.task)
        yield from self._charge(
            self.costs.accept_op + self.costs.fd_alloc, "accept")
        new_fd = self.task.fdtable.alloc(child)
        return new_fd, child.remote_addr

    def connect(self, fd: int, addr, timeout: Optional[float] = None):
        """Blocking connect (with optional caller timeout)."""
        sock = require_socket(self._file(fd))
        kernel = self.kernel
        kernel.counters["sys.connect"] += 1
        yield kernel.cpu.consume_parts(kernel.fused.connect_parts, PRIO_USER)
        result = yield from sock.do_connect(self.task, addr, timeout)
        return result

    def sendfile(self, out_fd: int, data: bytes):
        """Simplified ``sendfile()`` from the page cache (future work,
        section 6): the same bytes leave the socket, but without the
        user-space copy, so the per-byte CPU cost is far lower."""
        sock = require_socket(self._file(out_fd))
        yield from self._enter("sys.sendfile")
        result = yield from sock.do_sendfile(self.task, data)
        return result

    # ------------------------------------------------------------------
    # UNIX-domain socketpair with fd passing (phhttpd's overflow handoff)
    # ------------------------------------------------------------------
    def socketpair(self):
        yield from self._enter("sys.socketpair")
        yield from self._charge(
            2 * (self.costs.socket_create + self.costs.fd_alloc), "socket")
        a, b = UnixSocketFile.make_pair(self.kernel)
        fd_a = self.task.fdtable.alloc(a)
        fd_b = self.task.fdtable.alloc(b)
        return fd_a, fd_b

    def send_fds(self, fd: int, payload: bytes, fds: Sequence[int]):
        """sendmsg() with SCM_RIGHTS: pass open descriptors to the peer."""
        file = self._file(fd)
        if not isinstance(file, UnixSocketFile):
            raise SyscallError(ENOTSOCK, "send_fds requires a unix socket")
        files = [self._file(f) for f in fds]
        yield from self._enter("sys.sendmsg")
        yield from self._charge(
            self.costs.fd_pass_op * max(1, len(files)), "fdpass")
        file.send_message(payload, files)
        return len(payload)

    def recv_fds(self, fd: int, timeout: Optional[float] = None):
        """recvmsg() with SCM_RIGHTS; returns ``(payload, [new_fds])``.

        Received files are installed into this task's fd table.
        """
        file = self._file(fd)
        if not isinstance(file, UnixSocketFile):
            raise SyscallError(ENOTSOCK, "recv_fds requires a unix socket")
        yield from self._enter("sys.recvmsg")
        message = yield from file.recv_message(self.task, timeout)
        if message is None:
            raise SyscallError(EAGAIN, "recvmsg timed out")
        payload, files = message
        yield from self._charge(
            self.costs.fd_pass_op * max(1, len(files)), "fdpass")
        new_fds = [self.task.fdtable.alloc(f) for f in files]
        for f in files:
            f.put()  # fd table took its own reference; drop the in-flight one
        return payload, new_fds
