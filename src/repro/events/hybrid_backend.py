"""Hybrid backend: RT signals over a ``/dev/poll`` interest set (section 6).

The paper's imagined hybrid switches between RT signals and polling at
the signal-queue limit, and keeps the kernel interest set current while
it runs on signals so the switch costs "very little overhead".  The
backend composes the two existing mechanisms:

* every descriptor is armed for RT signals (:class:`RtsigBackend`) **and**
  staged into a ``/dev/poll`` interest set (:class:`DevpollBackend`);
  the staged updates are flushed with one ``write()`` before every wait,
  in either mode;
* in signal mode ``wait`` drains the signal queue in ``sigtimedwait4``
  batches; a ``SIGIO`` (queue overflow) reaches the server loop as the
  ``RTSIG_OVERFLOW`` sentinel, and :meth:`recover_overflow` flushes the
  stale queue and switches to polling -- ``DP_POLL`` already knows the
  whole interest set, so there is no hand-off and no rebuild;
* in polling mode ``wait`` is one ``DP_POLL``; once ``calm_loops``
  consecutive polls return at most ``low_water_ready`` events, the next
  wait flushes the signal backlog and returns to signal mode -- the
  switch-back phhttpd never implemented.  That flush also drops the
  signal of any readiness that arrived after the last poll, so the
  switching wait ends with one zero-timeout ``DP_POLL`` and returns
  what it finds.

A wait of either mechanism is one wait of this backend: the two are
accounted under it (:attr:`EventBackend.owner`).  The server counts one
loop per signal handled in signal mode and one per ``DP_POLL`` in
polling mode.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..kernel.constants import SIGIO
from .base import EventBackend, register_backend
from .devpoll_backend import DevpollBackend
from .rtsig_backend import RtsigBackend


@register_backend
class HybridBackend(EventBackend):
    name = "hybrid"
    counts_loops = True
    arming_misses_readiness = True

    def __init__(self, server) -> None:
        super().__init__(server)
        self.rtsig = RtsigBackend(server)
        self.devpoll = DevpollBackend(server)
        self.rtsig.owner = self.devpoll.owner = self
        self.mode = "signals"
        #: (time, new_mode) history -- integration tests assert on this
        self.mode_switches: List[Tuple[float, str]] = []
        #: consecutive calm DP_POLLs in polling mode
        self._calm = 0

    def _switch(self, mode: str) -> None:
        self.mode = mode
        self._calm = 0
        self.mode_switches.append((self.sim.now, mode))
        self.kernel.trace("hybrid", f"mode -> {mode} "
                          f"({len(self.server.conns)} connections live)")

    def _drop_signal_backlog(self) -> Generator:
        yield from self.sys.flush_rt_signals()
        self.server.task.signal_queue.clear_classic(SIGIO)

    def setup(self) -> Generator:
        yield from super().setup()
        yield from self.rtsig.setup()
        yield from self.devpoll.setup()
        self._switch("signals")

    def register(self, fd: int, mask: int) -> Generator:
        self.stats.registers += 1
        self._counts[self._registers_key] += 1
        yield from self.rtsig.register(fd, mask)
        yield from self.devpoll.register(fd, mask)

    def modify(self, fd: int, mask: int) -> Generator:
        # signals report every band anyway; only the interest set changes
        self.stats.modifies += 1
        self._counts[self._modifies_key] += 1
        yield from self.devpoll.modify(fd, mask)

    def interest_forget(self, fd: int) -> None:
        self.devpoll.interest_forget(fd)

    def recover_overflow(self) -> Generator:
        yield from self._drop_signal_backlog()
        self._switch("polling")

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        cfg = self.server.config
        if self.mode == "polling" and self._calm >= cfg.calm_loops:
            # the load has subsided: drop the stale signal backlog, then
            # harvest without blocking what the dropped signals reported
            yield from self._drop_signal_backlog()
            self._switch("signals")
            self.server.stats.loops += 1
            return (yield from self.devpoll.wait(max_events, 0.0))
        # keep the kernel interest set current before taking the timeout
        yield from self.devpoll.flush()
        if self.mode == "signals":
            return (yield from self.rtsig.wait(max_events, timeout, deadline))
        events = yield from self.devpoll.wait(max_events, timeout, deadline)
        self.server.stats.loops += 1
        if len(events) <= cfg.low_water_ready:
            self._calm += 1
        else:
            self._calm = 0
        return events

    @property
    def devpoll_file(self):
        """The /dev/poll object behind polling mode."""
        return self.devpoll.devpoll_file
