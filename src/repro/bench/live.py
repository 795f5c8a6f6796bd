"""Run one benchmark point on the live runtime (real localhost sockets).

The server side is the unchanged unified loop --
:class:`~repro.servers.thttpd.ThttpdServer` on a ``live-epoll`` or
``live-select`` backend, driven to completion on a
:class:`~repro.runtime.live.LiveRuntime` thread.  The client side is a
thread-pool httperf analogue: connections are launched at the targeted
rate against the runtime's (ephemeral) listen port, each sends one GET
and reads to EOF, and replies land in the very same reply log the
simulated :class:`~repro.bench.httperf.HttperfClient` fills -- one
:class:`~repro.bench.httperf.HttperfResult` entry per reply, from which
the reply rates and latency statistics are computed -- so every
consumer of a point result (CLI headline, records, diffs) reads live
runs without special cases.

The paper's *inactive connection* axis maps to real idle persistent
connections: a keeper thread holds ``point.inactive`` open sockets that
never send a request, reconnecting whenever the server's idle sweep
closes one (the reconnect count is reported like the simulated pool's).

Beyond the usual measurements, a live point record carries the
calibration block: measured wall time per real syscall (from the
runtime's ``timed()`` tables) next to the cost model's predictions for
the identical run (from the accounting-only live CPU) -- the inputs
``repro calibrate`` fits against.
"""

from __future__ import annotations

import socket as _socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..http.messages import get_request, parse_status
from .httperf import HttperfResult
from .records import measurement_keys

READ_CHUNK = 65536

#: live event backends; ``None`` on a point means "the runtime default"
LIVE_BACKENDS = ("live-epoll", "live-select")


def default_live_backend() -> str:
    import select

    return "live-epoll" if hasattr(select, "epoll") else "live-select"


@dataclass
class LivePointResult:
    """Duck-compatible with :class:`~repro.bench.harness.PointResult`
    where it matters (headline fields), plus the live extras."""

    point: Any
    reply_rate: Any
    error_percent: float
    median_conn_ms: Optional[float]
    httperf: HttperfResult
    server_stats: Any
    server: Any
    runtime: Any
    cpu_utilization: float
    inactive_reconnects: int
    wall_clock_s: float
    #: the precomputed artifact -- ``point_record`` returns it verbatim
    record: Dict[str, Any] = field(default_factory=dict)
    # sim-only observability slots, kept for attribute compatibility
    testbed: Any = None
    profiler: Any = None
    timeline: Any = None
    pathologies: Any = None


class _IdleConnectionKeeper:
    """Hold N idle persistent connections open against the server.

    These are the live analogue of the simulated inactive pool: they
    connect, send nothing, and occupy the server's interest set.  The
    server's idle sweep will close them every ``idle_timeout`` seconds;
    the keeper notices (EOF/reset on a cheap nonblocking read) and
    reconnects, counting each reconnect like the simulated pool does.
    """

    def __init__(self, address, count: int) -> None:
        self.address = address
        self.count = count
        self.reconnects = 0
        self._socks: List[_socket.socket] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _connect_one(self) -> Optional[_socket.socket]:
        try:
            sock = _socket.create_connection(self.address, timeout=1.0)
            sock.setblocking(False)
            return sock
        except OSError:
            return None

    def start(self) -> None:
        for _ in range(self.count):
            sock = self._connect_one()
            if sock is not None:
                self._socks.append(sock)
        if self.count:
            self._thread = threading.Thread(target=self._tend,
                                            name="live-inactive", daemon=True)
            self._thread.start()

    def _tend(self) -> None:
        while not self._stop.is_set():
            for i, sock in enumerate(self._socks):
                closed = False
                try:
                    if sock.recv(1) == b"":
                        closed = True
                except BlockingIOError:
                    pass  # still open and idle -- the normal case
                except OSError:
                    closed = True
                if closed:
                    sock.close()
                    replacement = self._connect_one()
                    if replacement is not None:
                        self._socks[i] = replacement
                        self.reconnects += 1
            self._stop.wait(0.25)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(2.0)
        for sock in self._socks:
            try:
                sock.close()
            except OSError:
                pass
        self._socks = []

    @property
    def established(self) -> int:
        return len(self._socks)


class _LiveLoadGenerator:
    """Paced thread-pool client filling an :class:`HttperfResult`."""

    def __init__(self, address, rate: float, duration: float,
                 num_conns: Optional[int], timeout: float,
                 doc_path: str = "/index.html", workers: int = 8) -> None:
        self.address = address
        self.rate = rate
        self.timeout = timeout
        self.doc_path = doc_path
        self.total = (num_conns if num_conns is not None
                      else max(1, int(rate * duration)))
        self.workers = max(1, min(workers, self.total))
        self._lock = threading.Lock()
        self._next = 0
        self._t0 = 0.0
        self.result = HttperfResult()

    def run(self) -> HttperfResult:
        self._t0 = time.monotonic()
        self.result.started_at = 0.0
        threads = [threading.Thread(target=self._worker,
                                    name=f"live-httperf-{i}", daemon=True)
                   for i in range(self.workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        finished = time.monotonic() - self._t0
        self.result.finished_at = finished
        # the nominal span is the paced length; workers routinely finish
        # a few ms early, which would otherwise round the last (often
        # only) rate window away
        nominal = self.total / self.rate if self.rate > 0 else finished
        self.result.set_reply_rate(0.0, max(finished, nominal))
        return self.result

    def _claim(self) -> Optional[int]:
        with self._lock:
            if self._next >= self.total:
                return None
            index = self._next
            self._next += 1
            return index

    def _worker(self) -> None:
        interval = 1.0 / self.rate if self.rate > 0 else 0.0
        while True:
            index = self._claim()
            if index is None:
                return
            target = self._t0 + index * interval
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._one_connection()

    def _one_connection(self) -> None:
        res = self.result
        with self._lock:
            res.attempts += 1
        t0 = time.monotonic()
        body = b""
        try:
            sock = _socket.create_connection(self.address,
                                             timeout=self.timeout)
        except (TimeoutError, _socket.timeout):
            with self._lock:
                res.errors.timeouts += 1
            return
        except OSError:
            with self._lock:
                res.errors.refused += 1
            return
        try:
            sock.settimeout(self.timeout)
            sock.sendall(get_request(self.doc_path))
            while True:
                chunk = sock.recv(READ_CHUNK)
                if not chunk:
                    break
                body += chunk
        except (TimeoutError, _socket.timeout):
            with self._lock:
                res.errors.timeouts += 1
            sock.close()
            return
        except OSError:
            with self._lock:
                res.errors.refused += 1
            sock.close()
            return
        sock.close()
        now = time.monotonic()
        conn_ms = (now - t0) * 1000.0
        status = parse_status(body) if body else None
        with self._lock:
            res.completions += 1
            res.bytes_received += len(body)
            if status == 200:
                res.reply_log.append((now - self._t0, conn_ms))
            else:
                res.errors.other += 1


def live_point_record(point, result: "LivePointResult") -> Dict[str, Any]:
    """The artifact for a live point: the measurement keys every point
    record carries plus ``runtime`` and the ``live`` calibration block."""
    runtime = result.runtime
    record = {
        "server": point.server,
        "backend": point.backend,
        "runtime": "live",
        "rate": point.rate,
        "inactive": point.inactive,
        "duration": point.duration,
        "num_conns": point.num_conns,
        "seed": point.seed,
        "timeout": point.timeout,
        **measurement_keys(result, wall_clock_s=result.wall_clock_s),
        "live": {
            "listen_port": (runtime.listen_address[1]
                            if runtime.listen_address else None),
            "measured_syscalls": runtime.measured_summary(),
            "modeled_cpu_us": {
                category: round(seconds * 1e6, 3)
                for category, seconds in sorted(
                    runtime.kernel.cpu.busy_by_category.items())},
            "backend_stats": {
                "waits": result.server.backend.stats.waits,
                "events": result.server.backend.stats.events,
                "registered_sum": result.server.backend.stats.registered_sum,
                "spurious_wakeups":
                    result.server.backend.stats.spurious_wakeups,
            },
        },
    }
    return record


def run_live_point(point) -> LivePointResult:
    """Execute one benchmark point over real localhost sockets."""
    from ..runtime.live import LiveRuntime
    from ..servers.thttpd import ThttpdServer

    backend = point.backend if point.backend is not None \
        else default_live_backend()
    if backend not in LIVE_BACKENDS:
        raise ValueError(
            f"runtime 'live' needs a live event backend "
            f"({', '.join(LIVE_BACKENDS)}), not {backend!r}")
    if point.cpus != 1 or point.workers != 1:
        raise ValueError("the live runtime runs one event-loop process; "
                         "cpus/workers > 1 are simulation-only axes")
    runtime = LiveRuntime(trace=point.trace)
    server = ThttpdServer(runtime, backend=backend)
    server.start()
    deadline = time.monotonic() + 5.0
    while runtime.listen_address is None and time.monotonic() < deadline:
        time.sleep(0.005)
    if runtime.listen_address is None:
        runtime.stop_server(server)
        raise RuntimeError("live server did not start listening")

    keeper = _IdleConnectionKeeper(runtime.listen_address, point.inactive)
    keeper.start()
    # give the server a beat to accept and register the idle set
    if point.inactive:
        time.sleep(0.1)

    started = time.monotonic()
    busy_before = runtime.kernel.cpu.busy_time
    generator = _LiveLoadGenerator(
        runtime.listen_address, rate=point.rate, duration=point.duration,
        num_conns=point.num_conns, timeout=point.timeout)
    httperf = generator.run()
    elapsed = time.monotonic() - started

    keeper.stop()
    runtime.stop_server(server)

    modeled_busy = runtime.kernel.cpu.busy_time - busy_before
    # pin the resolved backend (the CLI's "--runtime live" with no
    # --backend leaves it None) so the result and record both carry it
    if point.backend is None:
        point = type(point)(**{**point.__dict__, "backend": backend})
    result = LivePointResult(
        point=point,
        reply_rate=httperf.reply_rate,
        error_percent=httperf.error_percent,
        median_conn_ms=httperf.median_conn_time_ms(),
        httperf=httperf,
        server_stats=server.stats,
        server=server,
        runtime=runtime,
        cpu_utilization=min(1.0, modeled_busy / max(1e-9, elapsed)),
        inactive_reconnects=keeper.reconnects,
        wall_clock_s=elapsed,
    )
    result.record = live_point_record(point, result)
    return result
