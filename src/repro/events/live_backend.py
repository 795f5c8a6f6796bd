"""Live backends: real host readiness syscalls behind the same seam.

These run only on :class:`~repro.runtime.live.LiveRuntime`: the fds in
play are real nonblocking localhost sockets (``runtime.sockets``), and
``wait()`` genuinely blocks the server's driver thread inside the host
kernel -- ``epoll_wait(2)`` for ``live-epoll``, ``select(2)`` for
``live-select`` (the portable fallback).  Mask translation is the
identity: the simulated ``POLL*`` constants were chosen to match the
Linux values, and ``EPOLLIN``/``EPOLLOUT``/``EPOLLERR``/``EPOLLHUP``
coincide with them numerically.

Like every backend, these charge the cost model's *prediction* for each
operation (via the live kernel's accounting-only CPU) while the
runtime's ``timed()`` tables record the *measured* wall time of the
real syscall -- the two sides of the ``repro calibrate`` comparison.
"""

from __future__ import annotations

import select as _select
from typing import Dict, Generator, Optional

from ..kernel.constants import POLLERR, POLLHUP, POLLIN, POLLOUT
from .base import EventBackend, register_backend

#: select(2)'s fd_set bound; live-select refuses fds at or above it
FD_SETSIZE = 1024


class _LiveBackend(EventBackend):
    """Shared plumbing: the owning runtime and the interest table."""

    def __init__(self, server) -> None:
        super().__init__(server)
        #: fd -> current interest mask (listener included after setup)
        self._interests: Dict[int, int] = {}

    @property
    def runtime(self):
        return self.server.runtime

    def _charge(self, modeled_extra: float = 0.0,
                category: str = "syscall") -> None:
        """Charge the cost model's prediction for one backend syscall."""
        self.kernel.cpu.consume(self.costs.syscall_entry + modeled_extra,
                                category=category)


@register_backend
class LiveEpollBackend(_LiveBackend):
    """``select.epoll`` over the runtime's real sockets."""

    name = "live-epoll"

    def __init__(self, server) -> None:
        super().__init__(server)
        self._ep = None

    @property
    def max_events(self) -> int:
        return getattr(self.server.config, "max_events", 1024)

    def setup(self) -> Generator:
        yield from super().setup()
        with self.runtime.timed("epoll_create"):
            self._ep = _select.epoll()
        self._charge(self.costs.fd_alloc)
        with self.runtime.timed("epoll_ctl"):
            self._ep.register(self.server.listen_fd, POLLIN)
        self._charge(self.costs.epoll_ctl_op)
        self._interests[self.server.listen_fd] = POLLIN

    def register(self, fd: int, mask: int) -> Generator:
        self.stats.registers += 1
        self._counts[self._registers_key] += 1
        with self.runtime.timed("epoll_ctl"):
            self._ep.register(fd, mask)
        self._charge(self.costs.epoll_ctl_op)
        self._interests[fd] = mask
        return
        yield  # pragma: no cover - marks this as a generator

    def modify(self, fd: int, mask: int) -> Generator:
        self.stats.modifies += 1
        self._counts[self._modifies_key] += 1
        with self.runtime.timed("epoll_ctl"):
            self._ep.modify(fd, mask)
        self._charge(self.costs.epoll_ctl_op)
        self._interests[fd] = mask
        return
        yield  # pragma: no cover - marks this as a generator

    def interest_forget(self, fd: int) -> None:
        """The kernel side cleans up on close; drop only local state.

        The explicit ``unregister`` keeps the epoll set exact even when
        something else holds a duplicate of the descriptor (the kernel
        only auto-removes on the *last* close).
        """
        if self._interests.pop(fd, None) is not None and self._ep is not None:
            try:
                self._ep.unregister(fd)
            except OSError:
                pass  # already gone from the kernel set

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        timeout = self._deadline_timeout(deadline, timeout)
        capacity = self.max_events
        if max_events is not None:
            capacity = min(capacity, max_events)
        with self.runtime.timed("epoll_wait"):
            ready = self._ep.poll(-1 if timeout is None else timeout,
                                  capacity)
        self._charge(self.costs.epoll_wait_base
                     + self.costs.epoll_copyout_per_event * len(ready))
        yield from self.sys.cpu_work(
            self.costs.user_scan_per_fd * len(ready), "app.scan")
        self._note_wait(ready, len(self._interests))
        return ready


@register_backend
class LiveSelectBackend(_LiveBackend):
    """``select.select`` over the runtime's real sockets (portable)."""

    name = "live-select"
    strict_state_stale = True
    fd_capacity = FD_SETSIZE

    def setup(self) -> Generator:
        yield from super().setup()
        self._interests[self.server.listen_fd] = POLLIN

    def register(self, fd: int, mask: int) -> Generator:
        self.stats.registers += 1
        self._counts[self._registers_key] += 1
        self._interests[fd] = mask
        return
        yield  # pragma: no cover - marks this as a generator

    def modify(self, fd: int, mask: int) -> Generator:
        self.stats.modifies += 1
        self._counts[self._modifies_key] += 1
        self._interests[fd] = mask
        return
        yield  # pragma: no cover - marks this as a generator

    def interest_forget(self, fd: int) -> None:
        self._interests.pop(fd, None)

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        timeout = self._deadline_timeout(deadline, timeout)
        rlist = [fd for fd, mask in self._interests.items() if mask & POLLIN]
        wlist = [fd for fd, mask in self._interests.items() if mask & POLLOUT]
        xlist = list(self._interests)
        with self.runtime.timed("select"):
            readable, writable, errored = _select.select(
                rlist, wlist, xlist, timeout)
        # the modeled select cost: bitmap copy-in + driver scan over the
        # whole watched set, the same terms the simulated select charges
        watched = len(self._interests)
        self._charge(self.costs.poll_copyin_per_fd * watched
                     + self.costs.poll_driver_callback * watched)
        ready: Dict[int, int] = {}
        for fd in readable:
            ready[fd] = ready.get(fd, 0) | POLLIN
        for fd in writable:
            ready[fd] = ready.get(fd, 0) | POLLOUT
        for fd in errored:
            ready[fd] = ready.get(fd, 0) | POLLERR | POLLHUP
        events = sorted(ready.items())
        if max_events is not None:
            events = events[:max_events]
        yield from self.sys.cpu_work(
            self.costs.user_scan_per_fd * watched, "app.scan")
        self._note_wait(events, watched)
        return events
