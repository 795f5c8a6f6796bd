"""``poll()`` backend: rebuild the pollfd array every loop.

The stock-thttpd mechanism from the paper's section 2: userspace keeps
the interest list, rebuilds a pollfd array per iteration (charged as
``app.build``), hands the whole array to ``poll()``, then linearly
scans it (``app.scan``) and re-checks it once per handled event
(``app.fdwatch``) -- the O(n) per-event costs the paper measures.

The backend mirrors the server's interest in an insertion-ordered dict
so the rebuilt array is identical, entry for entry, to what the legacy
loop built from ``conns``: listener first, then connections in accept
order.  Interest mutation is free here; every cost is paid in ``wait``.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from ..kernel.constants import POLLIN
from .base import EventBackend, register_backend


@register_backend
class PollBackend(EventBackend):
    name = "poll"

    def __init__(self, server) -> None:
        super().__init__(server)
        #: connection fd -> event mask, in registration order; the
        #: listener is *not* stored -- it is prepended at build time so
        #: it always heads the array, even after a phhttpd overflow
        #: handoff re-registers every connection before the listener
        #: moves over
        self._interests: Dict[int, int] = {}
        #: size of the array handed to the last ``poll()``; the
        #: per-event fdwatch re-check is charged against this snapshot
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

    def _build(self) -> List[Tuple[int, int]]:
        interests = [(self.server.listen_fd, POLLIN)]
        interests.extend(self._interests.items())
        return interests

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        kernel = self.kernel
        interests = self._build()
        n = len(interests)
        self._nwatched = n
        # app.build + syscall entry + copyin + scan are one grant, and
        # copyout + app.scan another; the timeout is derived from the
        # deadline after the array build, which advanced simulated time
        # (sys_poll reads that instant off the grant's boundary stamps)
        fused = kernel.fused
        ready = yield from self.sys.poll(
            interests, timeout, deadline=deadline,
            build_part=("app.build", fused.user_build_per_fd * n, None),
            tail_parts=(("app.scan", fused.user_scan_per_fd * n, None),))
        if kernel.tracer.enabled:
            server = self.server
            kernel.trace(
                server.name,
                f"loop {server.stats.loops}: poll over "
                f"{n} fds, {len(ready)} ready")
        self._note_wait(ready, n)
        return ready

    def dispatch_parts(self) -> tuple:
        return (("app.fdwatch",
                 self.costs.user_fdwatch_check_per_fd * self._nwatched,
                 None),)
