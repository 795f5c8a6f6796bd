"""phhttpd: the POSIX RT-signal event-driven server (section 2).

Single-threaded in the sense of the paper's section 5.2 benchmarks: one
signal-worker thread serves requests, and a partner thread exists solely
to take over with poll() when the RT signal queue overflows.

The signal mechanism itself (arming fds, ``sigtimedwait4`` dequeue,
overflow detection) lives in
:class:`repro.events.rtsig_backend.RtsigBackend`; this class keeps what
is genuinely phhttpd's: the per-event timer update, the race-ahead
first read after arming, and the section-6 meltdown choreography.

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
  in server meltdown" recovery path;
* the sibling then rebuilds a pollfd array from scratch each iteration
  (it reuses the unified thttpd loop on the ``poll`` backend) and
  **never switches back** to signal mode ("Brown never implemented this
  logic").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..events.rtsig_backend import RTSIG_OVERFLOW
from ..kernel.constants import (
    F_GETFL,
    F_SETFL,
    O_ASYNC,
    POLLERR,
    POLLHUP,
    POLLIN,
    POLLOUT,
)
from .base import READING, WRITING, BaseServer, Connection, ServerConfig
from .pool import WorkerPool
from .thttpd import ThttpdServer


@dataclass
class PhhttpdConfig(ServerConfig):
    #: signals dequeued per sigtimedwait4 call (1 = classic sigwaitinfo)
    signal_batch: int = 1
    #: avoid signal 32, which glibc's LinuxThreads claims (section 6)
    avoid_linuxthreads: bool = True
    #: unique signal number per fd (phhttpd's scheme) vs one shared number
    per_fd_unique_signals: bool = True


class _PollSibling(ThttpdServer):
    """The partner thread that handles RT-signal-queue overflow."""

    name = "phhttpd-poll"
    backend_name = "poll"

    def __init__(self, parent: "PhhttpdServer", handoff_fd: int):
        BaseServer.__init__(self, parent.kernel, parent.site, parent.config)
        # the parent's pool adopts this worker right after construction,
        # pointing stats/request_latency at the combined scoreboard
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
        yield from self.poll_loop()


class PhhttpdServer(BaseServer):
    name = "phhttpd"
    backend_name = "rtsig"

    def __init__(self, kernel, site=None, config: Optional[PhhttpdConfig] = None):
        super().__init__(kernel, site,
                         config if config is not None else PhhttpdConfig())
        self.mode = "signals"
        self.overflow_at: Optional[float] = None
        self.takeover_at: Optional[float] = None
        self.handoffs = 0
        self.handoff_fd = -1
        self.sibling: Optional[_PollSibling] = None
        #: the worker/sibling pair shares one scoreboard through a pool
        self.pool = WorkerPool(kernel, stats=self.stats,
                               request_latency=self.request_latency)

    # ------------------------------------------------------------------
    def run(self):
        sys = self.sys
        cfg: PhhttpdConfig = self.config  # type: ignore[assignment]
        costs = self.kernel.costs
        sim = self.kernel.sim

        yield from self.open_listener()
        yield from self.backend.setup()

        # the overflow partner: a separate task with its own fd table,
        # reachable over a UNIX domain socketpair (fork-style inheritance)
        worker_end, sibling_end = yield from sys.socketpair()
        self.sibling = _PollSibling(self, handoff_fd=-1)
        self.pool.adopt(self.sibling)
        self.sibling.handoff_fd = self.pool.inherit_fd(
            self, sibling_end, self.sibling)
        yield from sys.close(sibling_end)
        self.handoff_fd = worker_end
        self.pool.spawn_worker(self.sibling)

        next_sweep = sim.now + cfg.timer_interval

        while self.running and self.mode == "signals":
            events = yield from self.backend.wait(deadline=next_sweep)
            for fd, band in events:
                self.stats.loops += 1
                yield from sys.cpu_work(
                    costs.app_event_dispatch + costs.phhttpd_timer_update,
                    "app.dispatch")
                if self.kernel.causal.enabled:
                    self.kernel.causal.dispatch(sim.now, fd)
                if fd == RTSIG_OVERFLOW:
                    yield from self._overflow_recovery()
                    break
                if fd == self.listen_fd:
                    yield from self._handle_listener()
                    continue
                conn = self.conns.get(fd)
                if conn is None:
                    # an event queued before close(): treat as a hint only
                    self.stats.stale_events += 1
                    if self.kernel.causal.enabled:
                        self.kernel.causal.stale(sim.now, fd)
                    continue
                if conn.state == READING and band & (POLLIN | POLLERR | POLLHUP):
                    yield from self.handle_readable(conn)
                elif conn.state == WRITING and band & (POLLOUT | POLLERR | POLLHUP):
                    yield from self.handle_writable(conn)
            if sim.now >= next_sweep:
                yield from self.sweep_idle()
                next_sweep = sim.now + cfg.timer_interval
        # In polling mode the worker thread has nothing left to do.

    # ------------------------------------------------------------------
    def _handle_listener(self):
        new_conns = yield from self.accept_new()
        for conn in new_conns:
            conn.signo = yield from self.backend.register(conn.fd, POLLIN)
            # data may have raced ahead of F_SETSIG: try a first read now
            if conn.fd in self.conns:
                yield from self.handle_readable(conn)

    # ------------------------------------------------------------------
    def _overflow_recovery(self):
        """The section 6 meltdown path: flush, then hand every connection
        (one message each) plus the listener to the poll sibling."""
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

    # ------------------------------------------------------------------
    def stop(self) -> None:
        super().stop()
        self.pool.stop()

    @property
    def signal_queue_depth(self) -> int:
        return self.task.signal_queue.rt_depth
