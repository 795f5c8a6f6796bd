"""Machinery shared by every web-server implementation.

Each server is a simulated process (or two, for phhttpd) driving the
syscall interface.  The shared pieces are per-connection state, statistics,
idle-timeout sweeps, and the HTTP request/response handling sequence --
the servers differ *only* in their event model, which is the point of the
paper's comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..http.content import StaticSite
from ..http.parser import RequestParseError, RequestParser
from ..kernel.constants import (
    EAGAIN,
    F_SETFL,
    O_NONBLOCK,
    POLLREMOVE,
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


class InterestUpdateBatch:
    """Userspace staging of /dev/poll interest updates.

    A careful application coalesces its updates before writing them: a
    connection accepted and closed within the same event batch must not
    reach the kernel at all (its fd may already be closed -- or worse,
    reused -- by flush time).  Removes cancel any staged updates for the
    same fd and are only emitted if the kernel has actually seen that
    interest; batch order is preserved so remove-then-re-add on a reused
    fd number stays correct.
    """

    def __init__(self) -> None:
        from ..core.pollfd import PollFd  # local import: optional feature

        self._pollfd_cls = PollFd
        self._pending: list = []
        self._in_kernel: set = set()

    def add(self, fd: int, events: int) -> None:
        self._pending.append(self._pollfd_cls(fd, events))

    def remove(self, fd: int) -> None:
        self._pending = [p for p in self._pending if p.fd != fd]
        if fd in self._in_kernel:
            self._pending.append(self._pollfd_cls(fd, POLLREMOVE))

    def flush(self) -> list:
        """Take the staged updates (possibly empty) and account them."""
        updates, self._pending = self._pending, []
        for p in updates:
            if p.events & POLLREMOVE:
                self._in_kernel.discard(p.fd)
            else:
                self._in_kernel.add(p.fd)
        return updates

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def in_kernel(self) -> set:
        """fds whose interest the kernel has actually seen (read-only)."""
        return self._in_kernel


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
                 "accepted_at", "signo", "span")

    def __init__(self, fd: int, now: float):
        self.fd = fd
        self.state = READING
        self.parser = RequestParser()
        self.outbuf = b""
        self.last_activity = now
        self.accepted_at = now
        self.signo = 0  # RT signal number, when the event model uses one
        self.span = None  # open tracing span for the in-flight request

    def touch(self, now: float) -> None:
        self.last_activity = now

    def idle_for(self, now: float) -> float:
        return now - self.last_activity


class BaseServer:
    """Common skeleton; subclasses implement ``run()`` (the event loop)."""

    name = "base"
    #: event-driven servers (phhttpd, hybrid) write the response from the
    #: event handler itself; thttpd-family servers defer the first write
    #: to the next fdwatch cycle, as the real thttpd does -- the source of
    #: their small extra median latency in figure 14.
    immediate_write = True
    #: :data:`repro.events.BACKENDS` key naming the event-notification
    #: mechanism; None means the subclass runs its own loop without one
    #: (the hybrid composes two mechanisms by hand).  Instances may
    #: override before ``BaseServer.__init__`` runs.
    backend_name: Optional[str] = None

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
        if self.backend_name is not None:
            # local import: repro.events imports servers.base for the
            # shared InterestUpdateBatch
            from ..events import make_backend

            self.backend = make_backend(self.backend_name, self)
        else:
            self.backend = None

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
        raise NotImplementedError
        yield  # pragma: no cover

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
        # with the charge boundaries.
        yield self.kernel.cpu.consume_parts(self._http_parts, PRIO_USER)
        response = self.site.respond(request.path)
        conn.outbuf = response.encode()
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
        """Tear down one connection, dropping any event-interest state
        first (via :meth:`interest_forget`)."""
        if conn.fd in self.conns:
            self.interest_forget(conn)
            del self.conns[conn.fd]
            if conn.span is not None:
                self.kernel.span_end(conn.span, outcome="aborted")
                conn.span = None
            try:
                yield from self.sys.close(conn.fd)
            except SyscallError:
                pass

    def interest_forget(self, conn: Connection) -> None:
        """Drop event-interest bookkeeping for a connection being closed.

        Runs exactly once per close, inside :meth:`close_conn`'s
        membership guard, *before* the fd leaves ``conns`` -- the same
        point at which the old per-server overrides staged their
        POLLREMOVEs.  Never charges simulated CPU.
        """
        if self.backend is not None:
            self.backend.interest_forget(conn.fd)

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
