"""``select()`` backend: FD_SETSIZE-bounded bitmap readiness.

Same userspace structure as the ``poll`` backend (rebuild, wait, scan,
per-event fdwatch re-check) but through ``select()``'s two fd sets, so
it inherits the hard ``FD_SETSIZE`` ceiling the paper calls out as the
reason thttpd moved to ``poll()`` in the first place.  Readiness comes
back as separate readable/writable lists; the backend flattens them to
``(fd, POLLIN)`` / ``(fd, POLLOUT)`` pairs in that order.

A reported fd whose connection has since changed state cannot be
re-checked against a revents mask here (there is none), so the unified
server loop counts such events stale -- ``strict_state_stale``.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..core.select_syscall import FD_SETSIZE
from ..kernel.constants import POLLIN, POLLOUT
from .base import EventBackend, register_backend


@register_backend
class SelectBackend(EventBackend):
    name = "select"
    strict_state_stale = True
    fd_capacity = FD_SETSIZE

    def __init__(self, server) -> None:
        super().__init__(server)
        #: connection fd -> event mask, in registration order; the
        #: listener is prepended to ``readfds`` at build time
        self._interests: Dict[int, int] = {}
        self._nwatched = 0

    def register(self, fd: int, mask: int) -> Generator:
        self.stats.registers += 1
        self._counts[self._registers_key] += 1
        self._interests[fd] = mask
        return
        yield  # pragma: no cover - marks this as a generator

    def modify(self, fd: int, mask: int) -> Generator:
        self.stats.modifies += 1
        self._counts[self._modifies_key] += 1
        if fd in self._interests:
            self._interests[fd] = mask
        return
        yield  # pragma: no cover - marks this as a generator

    def interest_forget(self, fd: int) -> None:
        self._interests.pop(fd, None)

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        readfds = [self.server.listen_fd]
        readfds.extend(fd for fd, mask in self._interests.items()
                       if mask & POLLIN)
        writefds = [fd for fd, mask in self._interests.items()
                    if mask & POLLOUT]
        nwatched = len(readfds) + len(writefds)
        self._nwatched = nwatched
        # fused exactly as in PollBackend.wait
        fused = self.kernel.fused
        readable, writable = yield from self.sys.select(
            readfds, writefds, timeout, deadline=deadline,
            build_part=("app.build", fused.user_build_per_fd * nwatched, None),
            tail_parts=(("app.scan", fused.user_scan_per_fd * nwatched, None),))
        ready = ([(fd, POLLIN) for fd in readable]
                 + [(fd, POLLOUT) for fd in writable])
        self._note_wait(ready, nwatched)
        return ready

    def dispatch_parts(self) -> tuple:
        return (("app.fdwatch",
                 self.costs.user_fdwatch_check_per_fd * self._nwatched,
                 None),)
