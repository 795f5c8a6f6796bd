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

The backend keeps its two fd sets current as interest changes, the
listener always in the read set, and hands the same sets to every
``select()`` with its poll table, which compares them with the last
call's instead of being handed a rebuilt copy.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.poll_table import PollTable
from ..core.select_syscall import FD_SETSIZE
from ..kernel.constants import POLLIN, POLLOUT
from .base import register_backend
from .poll_backend import PollBackend


@register_backend
class SelectBackend(PollBackend):
    name = "select"
    strict_state_stale = True
    fd_capacity = FD_SETSIZE

    def __init__(self, server) -> None:
        super().__init__(server)
        #: the fds whose interest includes POLLIN, and the listener
        self._readfds = set()
        #: the fds whose interest includes POLLOUT
        self._writefds = set()
        #: the listener fd in ``_readfds``
        self._listen_fd: Optional[int] = None

    def _sort(self, fd: int, mask: int) -> None:
        if mask & POLLIN:
            self._readfds.add(fd)
        else:
            self._readfds.discard(fd)
        if mask & POLLOUT:
            self._writefds.add(fd)
        else:
            self._writefds.discard(fd)

    def register(self, fd: int, mask: int) -> Generator:
        self._sort(fd, mask)
        return super().register(fd, mask)

    def modify(self, fd: int, mask: int) -> Generator:
        if fd in self._interests:
            self._sort(fd, mask)
        return super().modify(fd, mask)

    def interest_forget(self, fd: int) -> None:
        super().interest_forget(fd)
        self._readfds.discard(fd)
        self._writefds.discard(fd)

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        readfds = self._readfds
        writefds = self._writefds
        listen_fd = self.server.listen_fd
        if listen_fd != self._listen_fd:
            if self._listen_fd not in self._interests:
                readfds.discard(self._listen_fd)
            readfds.add(listen_fd)
            self._listen_fd = listen_fd
        nwatched = len(readfds) + len(writefds)
        self._nwatched = nwatched
        table = self._table
        if table is None:
            table = self._table = PollTable(self.server.task)
        # fused exactly as in PollBackend.wait
        costs = self.costs
        readable, writable = yield from self.sys.select(
            readfds, writefds, timeout, deadline=deadline,
            build_part=("app.build",
                        costs.user_pollfd_build_per_fd * nwatched, None),
            tail_parts=(("app.scan", costs.user_scan_per_fd * nwatched,
                         None),),
            table=table)
        ready = ([(fd, POLLIN) for fd in readable]
                 + [(fd, POLLOUT) for fd in writable])
        self._note_wait(ready, nwatched)
        return ready
