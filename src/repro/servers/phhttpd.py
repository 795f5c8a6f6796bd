"""phhttpd: the POSIX RT-signal event-driven server (section 2).

Single-threaded in the sense of the paper's section 5.2 benchmarks: one
signal-worker thread serves requests, and a partner thread exists solely
to take over with poll() when the RT signal queue overflows.

phhttpd runs the shared event loop (:meth:`BaseServer.event_loop
<repro.servers.base.BaseServer.event_loop>`) on the ``rtsig`` backend
(:class:`repro.events.rtsig_backend.RtsigBackend`), which arms fds,
dequeues signals, detects overflow and has the loop make its race-ahead
first read after arming.  This module keeps what is genuinely
phhttpd's: the per-event timer update, charged with the dispatch, the
poll sibling's set-up, and the section-6 meltdown hand-off.

Faithfully modelled behaviours (sections 2 and 6):

* each descriptor is armed with ``fcntl(F_SETOWN/F_SETSIG)`` + ``O_ASYNC``
  and a (cyclically unique) RT signal number from the allocator;
* the chosen signals stay masked and are picked up one at a time with
  ``sigwaitinfo()`` (``PhhttpdConfig.signal_batch > 1`` switches to the
  proposed ``sigtimedwait4()`` batch dequeue);
* queued events are hints: stale events for closed/reused descriptors are
  detected and dropped (``stats.stale_events``);
* on queue overflow (``SIGIO``) the worker flushes pending RT signals and
  passes **every connection, one at a time, plus its listener socket**
  to the poll sibling over a UNIX domain socket -- the "probably result
  in server meltdown" recovery path -- and its own loop ends;
* the sibling then rebuilds a pollfd array from scratch each iteration
  (the shared loop on the ``poll`` backend) and **never switches back**
  to signal mode ("Brown never implemented this logic").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..kernel.constants import F_GETFL, F_SETFL, O_ASYNC, POLLIN, POLLOUT
from .base import READING, BaseServer, Connection, ServerConfig
from .pool import WorkerPool


@dataclass
class PhhttpdConfig(ServerConfig):
    #: signals dequeued per sigtimedwait4 call (1 = classic sigwaitinfo)
    signal_batch: int = 1
    #: avoid signal 32, which glibc's LinuxThreads claims (section 6)
    avoid_linuxthreads: bool = True


class _PollSibling(BaseServer):
    """The partner thread that handles RT-signal-queue overflow: a stock
    thttpd poll() loop once it takes over."""

    name = "phhttpd-poll"
    immediate_write = False

    def __init__(self, parent: "PhhttpdServer", handoff_fd: int):
        super().__init__(parent.kernel, parent.site, parent.config)
        # the worker/sibling pair shares one scoreboard: the worker's,
        # which a prefork pool has replaced with its own by now
        self.stats = parent.stats
        self.request_latency = parent.request_latency
        self.parent = parent
        self.handoff_fd = handoff_fd
        self.took_over = False

    def run(self):
        sys = self.sys
        # Phase 1: sleep until the worker hands everything over.
        while self.running:
            payload, fds = yield from sys.recv_fds(self.handoff_fd)
            kind = payload[0]
            if kind == "conn":
                _kind, state, outbuf, parser = payload
                fd = fds[0]
                conn = Connection(fd, self.kernel.sim.now)
                conn.state = state
                conn.outbuf = outbuf
                conn.parser = parser
                self.conns[fd] = conn
                yield from self.backend.register(
                    fd, POLLIN if state == READING else POLLOUT)
                # disarm the RT signal the worker left behind
                flags = yield from sys.fcntl(fd, F_GETFL)
                yield from sys.fcntl(fd, F_SETFL, flags & ~O_ASYNC)
            elif kind == "listener":
                self.listen_fd = fds[0]
            elif kind == "done":
                break
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown handoff message {kind!r}")
        if not self.running:
            return
        # Phase 2: stock-poll service, rebuilding the array every loop.
        # phhttpd never returns to signal mode from here (section 6).
        self.took_over = True
        self.parent.takeover_at = self.kernel.sim.now
        self.kernel.trace(
            "phhttpd", f"poll sibling took over {len(self.conns)} "
            f"connections; never switching back")
        yield from self.event_loop()


class PhhttpdServer(BaseServer):
    name = "phhttpd"
    backend_name = "rtsig"

    def __init__(self, kernel, site=None, config: Optional[PhhttpdConfig] = None):
        super().__init__(kernel, site,
                         config if config is not None else PhhttpdConfig())
        costs = self.kernel.costs
        # each handled signal also updates the connection's timer
        self._dispatch_part = (
            "app.dispatch",
            costs.app_event_dispatch + costs.phhttpd_timer_update, None)
        self.mode = "signals"
        self.overflow_at: Optional[float] = None
        self.takeover_at: Optional[float] = None
        self.handoffs = 0
        self.handoff_fd = -1
        self.sibling: Optional[_PollSibling] = None

    # ------------------------------------------------------------------
    def run(self):
        sys = self.sys
        yield from self.open_listener()
        yield from self.backend.setup()

        # the overflow partner: a separate task with its own fd table,
        # reachable over a UNIX domain socketpair (fork-style inheritance)
        worker_end, sibling_end = yield from sys.socketpair()
        self.sibling = _PollSibling(self, handoff_fd=-1)
        self.sibling.handoff_fd = WorkerPool.inherit_fd(
            self, sibling_end, self.sibling)
        yield from sys.close(sibling_end)
        self.handoff_fd = worker_end
        self.sibling.start()

        yield from self.event_loop()

    # ------------------------------------------------------------------
    def recover_overflow(self):
        """The section 6 meltdown path: flush, then hand every connection
        (one message each) plus the listener to the poll sibling.  The
        worker thread then has nothing left to do, so its loop ends."""
        sys = self.sys
        self.overflow_at = self.kernel.sim.now
        self.mode = "polling"
        if self.kernel.causal.enabled:
            self.kernel.causal.recovery(self.kernel.sim.now,
                                        conns=len(self.conns))
        span = self.kernel.span("phhttpd", "overflow_handoff",
                                conns=len(self.conns))
        self.kernel.trace(
            "phhttpd", f"RT queue overflow: flushing and handing "
            f"{len(self.conns)} connections to the poll sibling")
        yield from sys.flush_rt_signals()
        for conn in list(self.conns.values()):
            yield from sys.send_fds(
                self.handoff_fd,
                ("conn", conn.state, conn.outbuf, conn.parser),
                [conn.fd])
            self.handoffs += 1
            del self.conns[conn.fd]
            yield from sys.close(conn.fd)
        yield from sys.send_fds(self.handoff_fd, ("listener",),
                                [self.listen_fd])
        yield from sys.close(self.listen_fd)
        self.listen_fd = -1
        yield from sys.send_fds(self.handoff_fd, ("done",), [])
        self.kernel.span_end(span, handoffs=self.handoffs)
        self.running = False

    # ------------------------------------------------------------------
    def stop(self) -> None:
        super().stop()
        if self.sibling is not None:
            self.sibling.stop()

    @property
    def signal_queue_depth(self) -> int:
        return self.task.signal_queue.rt_depth
