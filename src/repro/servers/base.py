"""Machinery shared by every web-server implementation.

Each server is a simulated process (or two, for phhttpd) driving the
syscall interface.  The shared pieces are per-connection state,
statistics, idle-timeout sweeps, the HTTP request/response handling
sequence, and the one event loop (:meth:`BaseServer.event_loop`) that
thttpd, phhttpd and the hybrid all run -- the servers differ *only* in
their event backend (:mod:`repro.events`), which is the point of the
paper's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..events import RTSIG_OVERFLOW, make_backend
from ..http.content import StaticSite
from ..http.parser import RequestParseError, RequestParser
from ..kernel.constants import (
    EAGAIN,
    F_SETFL,
    O_NONBLOCK,
    POLLERR,
    POLLHUP,
    POLLIN,
    POLLNVAL,
    POLLOUT,
    SO_REUSEPORT,
    SOL_SOCKET,
    SyscallError,
)
from ..runtime.base import ensure_runtime
from ..sim.resources import PRIO_USER
from ..obs.latency import LatencyHistogram
from ..sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

READ_CHUNK = 4096

# connection states
READING = "reading"
WRITING = "writing"


@dataclass
class ServerConfig:
    port: int = 80
    backlog: int = 128
    #: close connections idle longer than this (thttpd's idle_timeout,
    #: scaled down so idle churn happens within short simulated runs)
    idle_timeout: float = 5.0
    #: how often the timer sweep runs
    timer_interval: float = 2.0
    #: server task RLIMIT_NOFILE
    fd_limit: int = 8192
    #: serve responses with sendfile() instead of write() (future work)
    use_sendfile: bool = False
    #: RT-signal queue bound for the server task (None = kernel default,
    #: 1024 -- "normally set high enough that it is never exceeded")
    rtsig_max: Optional[int] = None
    #: bind the listener with SO_REUSEPORT so prefork workers each get
    #: their own accept queue on the shared port
    reuse_port: bool = False


@dataclass
class ServerStats:
    accepts: int = 0
    requests: int = 0
    responses: int = 0
    bytes_sent: int = 0
    parse_errors: int = 0
    io_errors: int = 0          # resets/EPIPE from abandoned clients
    idle_closes: int = 0
    accept_failures: int = 0    # EMFILE and friends
    stale_events: int = 0       # events observed for already-closed fds
    loops: int = 0              # event-loop iterations / signals handled


class Connection:
    """Server-side per-connection bookkeeping."""

    __slots__ = ("fd", "state", "parser", "outbuf", "last_activity",
                 "accepted_at", "span")

    def __init__(self, fd: int, now: float):
        self.fd = fd
        self.state = READING
        self.parser = RequestParser()
        self.outbuf = b""
        self.last_activity = now
        self.accepted_at = now
        self.span = None  # open tracing span for the in-flight request

    def touch(self, now: float) -> None:
        self.last_activity = now

    def idle_for(self, now: float) -> float:
        return now - self.last_activity


class BaseServer:
    """Common skeleton: set-up, the event loop, and request handling."""

    name = "base"
    #: event-driven servers (phhttpd, hybrid) write the response from the
    #: event handler itself; thttpd-family servers defer the first write
    #: to the next fdwatch cycle, as the real thttpd does -- the source of
    #: their small extra median latency in figure 14.
    immediate_write = True
    #: :data:`repro.events.BACKENDS` key naming the event-notification
    #: mechanism.  Instances may override before ``BaseServer.__init__``
    #: runs.
    backend_name = "poll"

    def __init__(self, kernel: "Kernel", site: Optional[StaticSite] = None,
                 config: Optional[ServerConfig] = None):
        # ``kernel`` may be a bare simulated Kernel (every historical
        # call site) or a Runtime; either way the server only ever
        # talks to the substrate through ``self.runtime`` from here on
        self.runtime = ensure_runtime(kernel)
        self.kernel = self.runtime.kernel
        self.site = site if site is not None else StaticSite()
        self.config = config if config is not None else ServerConfig()
        self.task = self.runtime.new_task(
            f"{self.name}", fd_limit=self.config.fd_limit,
            rtsig_max=self.config.rtsig_max)
        self.sys = self.runtime.make_sys(self.task)
        self.stats = ServerStats()
        #: server-side service time (accept -> response written), in ms;
        #: always on (one log-bucket increment per response) so the
        #: telemetry artifacts carry server latency percentiles even
        #: when span tracing is off
        self.request_latency = LatencyHistogram()
        self.conns: Dict[int, Connection] = {}
        self.listen_fd: int = -1
        self.running = False
        self._process: Optional[Process] = None
        costs = self.kernel.costs
        #: per-request parse/cache/build charges as one fused grant
        #: (issued by handle_readable)
        self._http_parts = (
            ("http.parse", costs.http_parse_request, None),
            ("http.cache", costs.file_cache_lookup, None),
            ("http.build", costs.http_build_response, None),
        )
        #: the per-event dispatch charge, issued by the event loop
        self._dispatch_part = ("app.dispatch", costs.app_event_dispatch,
                               None)
        self.backend = make_backend(self.backend_name, self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Process:
        self.running = True
        self._process = self.runtime.start_server(self)
        return self._process

    def stop(self) -> None:
        """Ask the event loop to exit at its next iteration."""
        self.running = False

    def run(self):
        yield from self.open_listener()
        yield from self.backend.setup()
        yield from self.event_loop()

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def event_loop(self):
        """Wait for events, handle each one, and sweep idle connections
        when the timer falls due; every server runs this loop."""
        kernel = self.kernel
        sim = kernel.sim
        causal = kernel.causal
        backend = self.backend
        next_sweep = sim.now + self.config.timer_interval

        while self.running:
            if not backend.counts_loops:
                self.stats.loops += 1
            ready = yield from backend.wait(deadline=next_sweep)

            for fd, revents in ready:
                # the per-event dispatch charge and the backend's
                # bookkeeping (e.g. fdwatch_check_fd(): poll/select
                # re-search their whole rebuilt array per handled event)
                # are adjacent pure charges, so they go out as one fused
                # grant (each part its own FIFO slice)
                yield kernel.cpu.consume_parts(
                    (self._dispatch_part,) + backend.dispatch_parts(),
                    PRIO_USER)
                if causal.enabled:
                    causal.dispatch(sim.now, fd)
                if fd == RTSIG_OVERFLOW:
                    yield from self.recover_overflow()
                    break
                if fd == self.listen_fd:
                    yield from self.accept_ready()
                    continue
                conn = self.conns.get(fd)
                if conn is None:
                    self._stale(fd)
                    continue
                if revents & POLLNVAL:
                    self._stale(fd)
                    yield from self.close_conn(conn)
                    continue
                if conn.state == READING and revents & (POLLIN | POLLERR | POLLHUP):
                    yield from self.read_request(conn)
                elif conn.state == WRITING and revents & (POLLOUT | POLLERR | POLLHUP):
                    yield from self.handle_writable(conn)
                elif backend.strict_state_stale:
                    # select() cannot re-check a revents mask against the
                    # connection state; a mismatch is a stale event
                    self._stale(fd)

            if sim.now >= next_sweep:
                yield from self.sweep_idle()
                next_sweep = sim.now + self.config.timer_interval

    def accept_ready(self):
        """Accept every queued connection and register it."""
        backend = self.backend
        new_conns = yield from self.accept_new()
        for conn in new_conns:
            yield from backend.register(conn.fd, POLLIN)
            if backend.arming_misses_readiness and conn.fd in self.conns:
                # data may have raced ahead of the arming: read it now
                yield from self.read_request(conn)

    def read_request(self, conn: Connection):
        """:meth:`handle_readable`, then wait for ``POLLOUT`` if the
        response is not all written yet."""
        result = yield from self.handle_readable(conn)
        if result == "responding":
            yield from self.backend.modify(conn.fd, POLLOUT)

    def recover_overflow(self):
        """The backend lost events (the ``RTSIG_OVERFLOW`` sentinel): by
        default it recovers them itself (the hybrid switches to polling)."""
        yield from self.backend.recover_overflow()

    def _stale(self, fd: int) -> None:
        self.stats.stale_events += 1
        if self.kernel.causal.enabled:
            self.kernel.causal.stale(self.kernel.sim.now, fd)

    # ------------------------------------------------------------------
    # shared setup
    # ------------------------------------------------------------------
    def open_listener(self):
        """socket/bind/listen/O_NONBLOCK; returns the listening fd."""
        sys = self.sys
        fd = yield from sys.socket()
        if self.config.reuse_port:
            yield from sys.setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, 1)
        yield from sys.bind(fd, self.config.port)
        yield from sys.listen(fd, self.config.backlog)
        yield from sys.fcntl(fd, F_SETFL, O_NONBLOCK)
        self.listen_fd = fd
        self.kernel.trace(self.name, f"listening on port {self.config.port} "
                          f"(backlog {self.config.backlog})")
        return fd

    def accept_new(self):
        """Drain the accept queue; returns list of new Connections."""
        sys = self.sys
        new = []
        while True:
            try:
                fd, _addr = yield from sys.accept(self.listen_fd)
            except SyscallError as err:
                if err.errno_code == EAGAIN:
                    break
                self.stats.accept_failures += 1
                break
            yield from sys.fcntl(fd, F_SETFL, O_NONBLOCK)
            conn = Connection(fd, self.kernel.sim.now)
            self.conns[fd] = conn
            self.stats.accepts += 1
            new.append(conn)
        return new

    # ------------------------------------------------------------------
    # shared request handling
    # ------------------------------------------------------------------
    def handle_readable(self, conn: Connection):
        """Read and parse; on a complete request, build the response and
        start writing it.  Returns 'open', 'closed', or 'responding'."""
        sys = self.sys
        conn.touch(self.kernel.sim.now)
        try:
            data = yield from sys.read(conn.fd, READ_CHUNK)
        except SyscallError as err:
            if err.errno_code == EAGAIN:
                return "open"
            self.stats.io_errors += 1
            yield from self.close_conn(conn)
            return "closed"
        if data == b"":
            # client closed before completing a request
            yield from self.close_conn(conn)
            return "closed"
        try:
            request = conn.parser.feed(data)
        except RequestParseError:
            self.stats.parse_errors += 1
            yield from self.close_conn(conn)
            return "closed"
        if request is None:
            return "open"  # partial request (an inactive client, usually)
        self.stats.requests += 1
        if self.kernel.tracer.enabled:
            conn.span = self.kernel.span(self.name, "request", fd=conn.fd,
                                         path=request.path)
        # parse/cache-lookup/build are adjacent pure charges: one fused
        # grant (each part its own FIFO slice).  The response lookup
        # itself is a time-independent static-site read, so it commutes
        # with the charge boundaries; the build is charged even though
        # the site hands back a document's response encoded once.
        yield self.kernel.cpu.consume_parts(self._http_parts, PRIO_USER)
        conn.outbuf = self.site.response_bytes(request.path)
        conn.state = WRITING
        if self.immediate_write:
            result = yield from self.handle_writable(conn)
            return "closed" if result == "closed" else "responding"
        return "responding"

    def handle_writable(self, conn: Connection):
        """Push the response out; close when complete ('closed'/'open')."""
        sys = self.sys
        conn.touch(self.kernel.sim.now)
        while conn.outbuf:
            try:
                if self.config.use_sendfile:
                    sent = yield from sys.sendfile(conn.fd, conn.outbuf)
                else:
                    sent = yield from sys.write(conn.fd, conn.outbuf)
            except SyscallError as err:
                if err.errno_code == EAGAIN:
                    return "open"
                self.stats.io_errors += 1
                yield from self.close_conn(conn)
                return "closed"
            conn.outbuf = conn.outbuf[sent:]
            self.stats.bytes_sent += sent
        self.stats.responses += 1
        self.request_latency.record(
            (self.kernel.sim.now - conn.accepted_at) * 1000.0)
        if self.kernel.causal.enabled:
            self.kernel.causal.reply(self.kernel.sim.now, conn.fd)
        if conn.span is not None:
            self.kernel.span_end(conn.span, outcome="responded")
            conn.span = None
        yield from sys.cpu_work(self.kernel.costs.app_log_request, "http.log")
        yield from self.close_conn(conn)
        return "closed"

    def close_conn(self, conn: Connection):
        """Tear down one connection, dropping the backend's interest state
        first: once per close, while the fd is still this connection's
        (a ``/dev/poll`` backend stages its POLLREMOVE here)."""
        if conn.fd in self.conns:
            self.backend.interest_forget(conn.fd)
            del self.conns[conn.fd]
            if conn.span is not None:
                self.kernel.span_end(conn.span, outcome="aborted")
                conn.span = None
            try:
                yield from self.sys.close(conn.fd)
            except SyscallError:
                pass

    # ------------------------------------------------------------------
    # idle-timeout sweep
    # ------------------------------------------------------------------
    def sweep_idle(self):
        """Close connections idle past the limit; charges per-conn scan."""
        costs = self.kernel.costs
        now = self.kernel.sim.now
        yield from self.sys.cpu_work(
            costs.app_timer_check_per_conn * max(1, len(self.conns)),
            "app.timers")
        expired = [c for c in self.conns.values()
                   if c.idle_for(now) > self.config.idle_timeout]
        if expired and self.kernel.tracer.enabled:
            self.kernel.trace(self.name,
                              f"idle sweep closing {len(expired)} of "
                              f"{len(self.conns)} connections")
        for conn in expired:
            self.stats.idle_closes += 1
            yield from self.close_conn(conn)
        return expired
