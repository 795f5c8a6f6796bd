"""``LiveRuntime``: the identical server loop on real host sockets.

Where :class:`~repro.runtime.sim.SimRuntime` suspends server processes
on simulated wait queues and charges modeled CPU, this runtime performs
every operation for real: ``socket()`` opens a nonblocking localhost
socket, ``accept``/``read``/``write`` hit the host kernel, and the
``live-epoll``/``live-select`` backends (:mod:`repro.events.live_backend`)
block in the host's readiness syscalls.  The server loop itself --
:class:`~repro.servers.thttpd.ThttpdServer` byte-for-byte -- never
notices: live syscall generators simply return without yielding, so
``yield from sys.read(...)`` completes synchronously.

Three kinds of measurement are collected while the loop runs, and they
are what ``repro calibrate`` fits the cost model against:

* **per-syscall wall time** -- every real operation is timed with
  ``perf_counter`` and accumulated per syscall name
  (:attr:`LiveRuntime.syscall_wall` / :attr:`syscall_counts`);
* **modeled charges** -- the :class:`LiveCpu` shim accepts the same
  ``consume``/``consume_parts`` calls the simulated CPU would and
  accumulates the cost model's prediction per category, so modeled and
  measured time for the identical run sit side by side;
* **wall-clock spans** -- when tracing is requested the
  :class:`LiveKernel` routes ``kernel.span()`` to a real
  :class:`~repro.obs.spans.SpanTracer` stamped with the monotonic
  clock, so live request spans export through the same JSONL path as
  simulated ones.

The clock starts at 0 at runtime construction (monotonic since), so
deadlines computed by the server loop (idle sweeps) work unchanged.
"""

from __future__ import annotations

import socket as _socket
import threading
import time
from typing import Dict, Optional

from ..kernel.constants import (
    EAGAIN,
    EBADF,
    ECONNRESET,
    EPIPE,
    F_GETFL,
    F_SETFL,
    F_SETOWN,
    F_SETSIG,
    O_NONBLOCK,
    SyscallError,
)
from ..kernel.costs import DEFAULT_COSTS, CostModel
from ..obs.metrics import MetricsRegistry
from ..obs.causal import NULL_LEDGER
from ..obs.spans import NULL_TRACER, SpanTracer
from .base import LIVE, Runtime, register_runtime

#: listener ports below this are remapped to an ephemeral port -- the
#: benchmark configs say "port 80" but live runs must not need root
PRIVILEGED_PORT_CEILING = 1024


class LiveClock:
    """Monotonic seconds since construction; quacks like ``sim``.

    Exposed as ``kernel.sim`` so every ``kernel.sim.now`` read in the
    shared server code reads wall time on the live substrate.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0


class LiveCpu:
    """Accounting-only CPU: accumulates the cost model's predictions.

    ``consume``/``consume_parts`` mirror the simulated
    :class:`~repro.sim.resources.CPU` signatures but complete
    immediately (returning ``None``, which the server loop yields and
    the thread driver discards).  The accumulated per-category totals
    are the *modeled* half of the calibration comparison.
    """

    capacity = 1

    def __init__(self, speed: float = 1.0) -> None:
        self.speed = speed
        self.busy_time = 0.0
        self.busy_by_category: Dict[str, float] = {}
        self.profiler = None

    def _account(self, seconds: float, category: str) -> None:
        scaled = seconds / self.speed
        self.busy_time += scaled
        self.busy_by_category[category] = (
            self.busy_by_category.get(category, 0.0) + scaled)

    def consume(self, seconds: float, prio: int = 0,
                category: str = "other", nowait: bool = False):
        self._account(seconds, category)
        return None

    def consume_parts(self, parts, prio: int = 0, nowait: bool = False):
        for part in parts:
            category, seconds = part[0], part[1]
            self._account(seconds, category)
        return None

    def utilization(self, since: float = 0.0) -> float:  # pragma: no cover
        return 0.0


class LiveTask:
    """Minimal task bookkeeping: a name, a pid, and an fd budget."""

    def __init__(self, kernel: "LiveKernel", name: str,
                 fd_limit: int = 1024) -> None:
        self.kernel = kernel
        self.name = name
        self.pid = kernel.next_pid()
        self.fd_limit = fd_limit


class LiveKernel:
    """The kernel facade servers read, implemented over the host OS.

    Attribute-compatible with :class:`~repro.kernel.kernel.Kernel` for
    everything the shared server/backend code touches: ``sim.now``,
    ``costs``, ``cpu``, ``smp`` (always ``None`` -- the live host is
    one process), ``tracer``/``causal`` observation hooks, the metrics
    ``counters`` dict, and ``trace``/``span``/``span_end``.
    """

    def __init__(self, runtime: "LiveRuntime", costs: CostModel,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.runtime = runtime
        self.name = "live"
        self.sim = runtime.clock
        self.costs = costs
        self.cpu = LiveCpu()
        self.cpus = [self.cpu]
        self.smp = None
        self.net = None
        self.profiler = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.causal = NULL_LEDGER
        self.metrics = MetricsRegistry()
        self.counters = self.metrics.counts
        self._pid = 0

    def next_pid(self) -> int:
        self._pid += 1
        return self._pid

    def new_task(self, name: str, fd_limit: int = 1024,
                 rtsig_max: Optional[int] = None) -> LiveTask:
        return LiveTask(self, name, fd_limit=fd_limit)

    def charge_softirq(self, seconds: float,
                       category: str = "softirq") -> None:
        self.cpu.consume(seconds, category=category, nowait=True)

    def trace(self, subsystem: str, message: str) -> None:
        self.tracer.trace(self.sim.now, subsystem, message)

    def span(self, subsystem: str, name: str, **attrs):
        """A wall-clock span (live runs are single-track)."""
        return self.tracer.begin(self.sim.now, subsystem, name, **attrs)

    def span_end(self, span, **attrs) -> None:
        self.tracer.end(self.sim.now, span, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<LiveKernel>"


class LiveSyscallInterface:
    """The server-facing syscall surface over real localhost sockets.

    Method-compatible with the subset of
    :class:`~repro.kernel.syscalls.SyscallInterface` the unified
    ``ThttpdServer`` loop and the live backends use.  Every method is a
    generator that never yields: the real (nonblocking) operation runs
    inline, its wall time lands in the runtime's per-syscall tables,
    and the cost model's prediction for the same operation lands on the
    :class:`LiveCpu` -- measured and modeled, one call.
    """

    def __init__(self, runtime: "LiveRuntime", task: LiveTask) -> None:
        self.runtime = runtime
        self.task = task
        self.kernel = task.kernel
        self.costs = task.kernel.costs
        self.sim = task.kernel.sim

    # -- plumbing ------------------------------------------------------
    def _sock(self, fd: int) -> _socket.socket:
        try:
            return self.runtime.sockets[fd]
        except KeyError:
            raise SyscallError(EBADF, f"bad live fd {fd}") from None

    def _enter(self, key: str, modeled_extra: float = 0.0):
        """Count one syscall under its counter ``key`` (``"sys.read"``)
        and charge its modeled cost."""
        self.kernel.counters[key] += 1
        self.kernel.cpu.consume(self.costs.syscall_entry + modeled_extra,
                                category="syscall")

    def cpu_work(self, seconds: float, category: str = "user"):
        """Modeled userspace computation (accounting only, live)."""
        if seconds > 0:
            self.kernel.cpu.consume(seconds, category=category)
        return
        yield  # pragma: no cover - marks this as a generator

    # -- socket lifecycle ----------------------------------------------
    def socket(self):
        with self.runtime.timed("socket"):
            sock = _socket.socket(_socket.AF_INET, _socket.SOCK_STREAM)
        self._enter("sys.socket",
                    self.costs.socket_create + self.costs.fd_alloc)
        fd = sock.fileno()
        self.runtime.sockets[fd] = sock
        return fd
        yield  # pragma: no cover

    def bind(self, fd: int, port: int):
        sock = self._sock(fd)
        if port < PRIVILEGED_PORT_CEILING:
            port = 0  # benchmark configs say 80; live runs take ephemeral
        with self.runtime.timed("bind"):
            sock.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
            sock.bind((self.runtime.host, port))
        self._enter("sys.bind")
        self.runtime.bound_ports[fd] = sock.getsockname()[1]
        return 0
        yield  # pragma: no cover

    def listen(self, fd: int, backlog: int):
        sock = self._sock(fd)
        with self.runtime.timed("listen"):
            sock.listen(backlog)
        self._enter("sys.listen")
        self.runtime.listen_address = sock.getsockname()
        return 0
        yield  # pragma: no cover

    def fcntl(self, fd: int, op: int, arg: int = 0):
        sock = self._sock(fd)
        with self.runtime.timed("fcntl"):
            if op == F_SETFL:
                sock.setblocking(not (arg & O_NONBLOCK))
        self._enter("sys.fcntl", self.costs.fcntl_op)
        if op == F_GETFL:
            return 0 if sock.getblocking() else O_NONBLOCK
        if op in (F_SETFL, F_SETOWN, F_SETSIG):
            return 0
        return 0
        yield  # pragma: no cover

    def setsockopt(self, fd: int, level: int, optname: int, value: int = 1):
        self._sock(fd)  # validate; live runs need no real options here
        self._enter("sys.setsockopt", self.costs.setsockopt_op)
        return 0
        yield  # pragma: no cover

    def close(self, fd: int):
        sock = self.runtime.sockets.pop(fd, None)
        if sock is None:
            raise SyscallError(EBADF, f"close({fd})")
        with self.runtime.timed("close"):
            sock.close()
        self._enter("sys.close", self.costs.close_op)
        return 0
        yield  # pragma: no cover

    # -- connection I/O ------------------------------------------------
    def accept(self, fd: int):
        sock = self._sock(fd)
        try:
            with self.runtime.timed("accept"):
                child, addr = sock.accept()
        except (BlockingIOError, InterruptedError):
            raise SyscallError(EAGAIN, "accept would block") from None
        self._enter("sys.accept", self.costs.accept_op + self.costs.fd_alloc)
        new_fd = child.fileno()
        self.runtime.sockets[new_fd] = child
        return new_fd, addr
        yield  # pragma: no cover

    def read(self, fd: int, nbytes: int):
        sock = self._sock(fd)
        try:
            with self.runtime.timed("read"):
                data = sock.recv(nbytes)
        except (BlockingIOError, InterruptedError):
            raise SyscallError(EAGAIN, "read would block") from None
        except ConnectionResetError:
            raise SyscallError(ECONNRESET, "connection reset") from None
        self._enter("sys.read", self.costs.sock_read_base
                    + self.costs.sock_copy_per_byte * len(data))
        return data
        yield  # pragma: no cover

    def write(self, fd: int, data: bytes):
        sock = self._sock(fd)
        try:
            with self.runtime.timed("write"):
                sent = sock.send(data)
        except (BlockingIOError, InterruptedError):
            raise SyscallError(EAGAIN, "write would block") from None
        except (BrokenPipeError, ConnectionResetError):
            raise SyscallError(EPIPE, "peer went away") from None
        self._enter("sys.write", self.costs.sock_write_base
                    + self.costs.sock_copy_per_byte * sent)
        return sent
        yield  # pragma: no cover

    def sendfile(self, out_fd: int, data: bytes):
        result = yield from self.write(out_fd, data)
        return result


@register_runtime
class LiveRuntime(Runtime):
    """Real localhost sockets, one driver thread per server loop."""

    mode = LIVE

    def __init__(self, costs: CostModel = DEFAULT_COSTS,
                 host: str = "127.0.0.1", trace: bool = False) -> None:
        self.clock = LiveClock()
        self.host = host
        self.tracer = SpanTracer(enabled=trace)
        self.kernel = LiveKernel(self, costs, tracer=self.tracer)
        #: fd -> real socket object, shared by sys and backends
        self.sockets: Dict[int, _socket.socket] = {}
        #: listener fd -> actually-bound port (ephemeral remap)
        self.bound_ports: Dict[int, int] = {}
        #: (host, port) of the most recent listener
        self.listen_address = None
        #: measured wall seconds per syscall name (perf_counter)
        self.syscall_wall: Dict[str, float] = {}
        #: calls per syscall name (the measured denominator)
        self.syscall_counts: Dict[str, int] = {}
        self._threads: Dict[int, threading.Thread] = {}
        self._crashes: Dict[int, BaseException] = {}

    # -- measured-time accounting --------------------------------------
    class _Timed:
        __slots__ = ("runtime", "name", "t0")

        def __init__(self, runtime: "LiveRuntime", name: str) -> None:
            self.runtime = runtime
            self.name = name

        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            self.runtime.account(self.name, time.perf_counter() - self.t0)
            return False

    def timed(self, name: str) -> "_Timed":
        """Context manager timing one real syscall into the tables."""
        return LiveRuntime._Timed(self, name)

    def account(self, name: str, seconds: float) -> None:
        self.syscall_wall[name] = self.syscall_wall.get(name, 0.0) + seconds
        self.syscall_counts[name] = self.syscall_counts.get(name, 0) + 1

    def measured_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-syscall {count, wall_us, wall_us_per_call} table."""
        out: Dict[str, Dict[str, float]] = {}
        for name, count in sorted(self.syscall_counts.items()):
            wall = self.syscall_wall.get(name, 0.0)
            out[name] = {
                "count": count,
                "wall_us": round(wall * 1e6, 3),
                "wall_us_per_call": round(wall * 1e6 / max(1, count), 4),
            }
        return out

    # -- Runtime protocol ----------------------------------------------
    def now(self) -> float:
        return self.clock.now

    def new_task(self, name: str, fd_limit: int = 1024, rtsig_max=None):
        return self.kernel.new_task(name, fd_limit=fd_limit)

    def make_sys(self, task) -> LiveSyscallInterface:
        return LiveSyscallInterface(self, task)

    def start_server(self, server) -> threading.Thread:
        """Drive ``server.run()`` to completion on a daemon thread.

        The live syscall interface never yields, so iterating the
        generator just discards the ``None``s the loop's modeled CPU
        charges produce; the only real blocking happens inside the
        backend's host readiness wait.
        """
        loop = server.run()

        def drive() -> None:
            try:
                for _ in loop:
                    pass
            except BaseException as err:  # surfaced by stop_server
                self._crashes[id(server)] = err

        thread = threading.Thread(target=drive,
                                  name=f"live-{server.name}", daemon=True)
        self._threads[id(server)] = thread
        thread.start()
        return thread

    def stop_server(self, server, timeout: float = 5.0) -> None:
        """Flag the loop down, poke its readiness wait, join the thread.

        Raises the loop's exception if the server thread crashed --
        silent live-server death would otherwise read as "0 replies".
        """
        server.running = False
        self._poke_listener()
        thread = self._threads.pop(id(server), None)
        if thread is not None:
            thread.join(timeout)
        crash = self._crashes.pop(id(server), None)
        if crash is not None:
            raise crash

    def _poke_listener(self) -> None:
        """Wake a blocked readiness wait with a throwaway connection."""
        if self.listen_address is None:
            return
        try:
            poke = _socket.create_connection(self.listen_address,
                                             timeout=1.0)
            poke.close()
        except OSError:
            pass

    def default_backend(self) -> str:
        return ("live-epoll" if hasattr(__import__("select"), "epoll")
                else "live-select")

    def supports_backend(self, name: str) -> bool:
        return name.startswith("live-")
