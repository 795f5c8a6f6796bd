"""``select()`` backend: FD_SETSIZE-bounded bitmap readiness.

A ``poll`` backend (rebuild, wait, scan, per-event fdwatch re-check)
that waits through ``select()``'s two fd sets instead, so it hits the
hard ``FD_SETSIZE`` ceiling the paper calls out as the reason thttpd
moved to ``poll()`` in the first place; only ``wait`` is its own.
Readiness comes back as separate readable/writable lists; the backend
flattens them to ``(fd, POLLIN)`` / ``(fd, POLLOUT)`` pairs in that
order.

A reported fd whose connection has since changed state cannot be
re-checked against a revents mask here (there is none), so the unified
server loop counts such events stale -- ``strict_state_stale``.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.select_syscall import FD_SETSIZE
from ..kernel.constants import POLLIN, POLLOUT
from .base import register_backend
from .poll_backend import PollBackend


@register_backend
class SelectBackend(PollBackend):
    name = "select"
    strict_state_stale = True
    fd_capacity = FD_SETSIZE

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
        costs = self.costs
        readable, writable = yield from self.sys.select(
            readfds, writefds, timeout, deadline=deadline,
            build_part=("app.build",
                        costs.user_pollfd_build_per_fd * nwatched, None),
            tail_parts=(("app.scan", costs.user_scan_per_fd * nwatched,
                         None),))
        ready = ([(fd, POLLIN) for fd in readable]
                 + [(fd, POLLOUT) for fd in writable])
        self._note_wait(ready, nwatched)
        return ready
