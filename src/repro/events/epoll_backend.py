"""``epoll`` backend: syscall-per-mutation in-kernel interest set.

The mechanism Linux actually shipped (2.5.44) out of the line of work
the paper describes; see :mod:`repro.core.epoll` for the kernel side.
Userspace structure matches the ``/dev/poll`` backend -- wait returns
only ready descriptors and there is no per-event fdwatch re-check --
but interest changes are individual ``epoll_ctl`` syscalls instead of
batched ``write()``s, and closing a watched fd needs no bookkeeping at
all: the kernel side cleans up automatically, so ``interest_forget``
is a no-op (the cost-model consequence is discussed in
``docs/cost_model.md``).

``edge_triggered`` on the server config arms connection fds with
``EPOLLET``: each readiness edge is reported once, which suits this
server's drain-to-EAGAIN handlers.  The listener stays level-triggered
either way.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.epoll import EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLLET
from ..kernel.constants import POLLIN
from .base import EventBackend, register_backend


@register_backend
class EpollBackend(EventBackend):
    name = "epoll"

    def __init__(self, server) -> None:
        super().__init__(server)
        self.ep_fd: int = -1

    @property
    def edge_triggered(self) -> bool:
        return getattr(self.server.config, "edge_triggered", False)

    @property
    def max_events(self) -> int:
        return getattr(self.server.config, "max_events", 1024)

    def _mask(self, mask: int) -> int:
        return mask | (EPOLLET if self.edge_triggered else 0)

    def setup(self) -> Generator:
        yield from super().setup()
        self.ep_fd = yield from self.sys.epoll_create()
        yield from self.sys.epoll_ctl(
            self.ep_fd, EPOLL_CTL_ADD, self.server.listen_fd, POLLIN)

    def register(self, fd: int, mask: int) -> Generator:
        self.stats.registers += 1
        self._counts[self._registers_key] += 1
        yield from self.sys.epoll_ctl(
            self.ep_fd, EPOLL_CTL_ADD, fd, self._mask(mask))

    def modify(self, fd: int, mask: int) -> Generator:
        self.stats.modifies += 1
        self._counts[self._modifies_key] += 1
        yield from self.sys.epoll_ctl(
            self.ep_fd, EPOLL_CTL_MOD, fd, self._mask(mask))

    def interest_forget(self, fd: int) -> None:
        """No-op: the kernel drops closed fds from the set by itself."""

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        server = self.server
        timeout = self._deadline_timeout(deadline, timeout)
        capacity = self.max_events
        if max_events is not None:
            capacity = min(capacity, max_events)
        ready = yield from self.sys.epoll_wait(self.ep_fd, capacity, timeout)
        if self.kernel.tracer.enabled:
            self.kernel.trace(server.name,
                              f"loop {server.stats.loops}: "
                              f"{len(ready)} ready")
        yield from self.sys.cpu_work(
            self.costs.user_scan_per_fd * len(ready), "app.scan")
        epoll_file = self.epoll_file
        registered = len(epoll_file.interests) if epoll_file is not None else 0
        self._note_wait(ready, registered)
        return ready

    @property
    def epoll_file(self):
        """The kernel-side epoll object (for stats in tests/benches)."""
        return self.server.task.fdtable.lookup(self.ep_fd)
