"""The httperf-style load generator (section 5).

Mirrors what the authors measured with their modified httperf:

* connections are opened at a fixed *targeted request rate*; each one
  sends a single GET for the 6 KB document and reads to EOF;
* the client was "modified to cope dynamically with a large number of
  file descriptors" -- ``fd_limit`` defaults well above httperf's stock
  1024 assumption (set it to 1024 to reproduce the stock behaviour);
* a connection errors out if the client runs out of descriptors, if it
  times out (connect or reply), or if the server refuses/resets it --
  the three error classes figure 10 plots;
* replies are counted into one-second windows, giving the avg/min/max
  reply-rate points (with standard-deviation error bars) of figures 4-9
  and 11-13, and per-connection wall times give figure 14's medians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..http.messages import get_request, parse_status
from ..kernel.constants import (
    EAGAIN,
    ECONNREFUSED,
    ECONNRESET,
    EMFILE,
    ETIMEDOUT,
    F_SETFL,
    O_NONBLOCK,
    POLLIN,
    SyscallError,
)
from ..kernel.syscalls import SyscallInterface
from ..obs.latency import LatencyHistogram
from ..sim.engine import Event
from ..sim.process import spawn
from ..sim.stats import (RATE_WINDOW, ErrorCounter, RateSummary, quantile,
                         window_rates)
from .testbed import Testbed

READ_CHUNK = 65536


@dataclass
class HttperfConfig:
    """Knobs of the load generator (httperf command-line equivalents)."""

    #: targeted request (connection) rate, per second
    rate: float = 500.0
    #: measurement length in seconds (ignored if num_conns is set)
    duration: float = 10.0
    #: stop after exactly this many connections (the paper used 35 000)
    num_conns: Optional[int] = None
    #: httperf --timeout equivalent: connect + reply deadline
    timeout: float = 5.0
    doc_path: str = "/index.html"
    #: optional multi-document workload: each connection requests a path
    #: drawn uniformly from this list (section 5 notes that "a web
    #: server's static performance depends on the size distribution of
    #: requested documents")
    doc_paths: Optional[list] = None
    #: client descriptor budget ("modified to cope dynamically")
    fd_limit: int = 16384
    #: "poisson" (exponential gaps -- WAN-realistic burstiness) or
    #: "deterministic" (httperf's exact fixed interval, plus jitter)
    arrival: str = "poisson"
    #: +/- fraction of the interarrival gap applied as uniform jitter
    #: (deterministic mode only)
    jitter: float = 0.1


@dataclass
class HttperfResult:
    """Counters and statistics from one load-generation run."""

    attempts: int = 0
    completions: int = 0
    bytes_received: int = 0
    errors: ErrorCounter = field(default_factory=ErrorCounter)
    reply_rate: RateSummary = field(default_factory=RateSummary)
    #: one (completion_time_s, connection_time_ms) pair per successful
    #: reply, in completion order: the run's only per-reply store.  Rate
    #: windows and latency statistics are computed from it when read,
    #: and analyses can split a run at an instant (e.g. before/after a
    #: signal-queue overflow)
    reply_log: list = field(default_factory=list)
    #: the per-window reply-rate series behind ``reply_rate`` (one value
    #: per sample window, aligned to the measurement span)
    reply_rate_samples: list = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    #: the log's connection times, ascending, as of its last read
    _ordered_ms: list = field(default_factory=list, init=False, repr=False)

    @property
    def replies_ok(self) -> int:
        return len(self.reply_log)

    @property
    def error_percent(self) -> float:
        """Errored connections as a percentage of attempts (figure 10)."""
        return self.errors.percent_of(self.attempts)

    def _conn_times_ms(self) -> List[float]:
        """The logged connection times in ms, ascending; sorted once and
        reused while the log does not grow."""
        if len(self._ordered_ms) != len(self.reply_log):
            self._ordered_ms = sorted(ms for _t, ms in self.reply_log)
        return self._ordered_ms

    def median_conn_time_ms(self) -> Optional[float]:
        """Median connection wall time in ms (figure 14), or None."""
        return self.conn_time_quantile_ms(0.5)

    def conn_time_quantile_ms(self, q: float) -> Optional[float]:
        """Arbitrary latency quantile, e.g. ``0.9`` or ``0.99``."""
        ordered = self._conn_times_ms()
        return quantile(ordered, q) if ordered else None

    def latency_summary_ms(self) -> Optional[dict]:
        """min/median/p90/p99/max of connection times, in milliseconds."""
        ordered = self._conn_times_ms()
        if not ordered:
            return None
        return {
            "min": ordered[0],
            "median": quantile(ordered, 0.5),
            "p90": quantile(ordered, 0.90),
            "p99": quantile(ordered, 0.99),
            "max": ordered[-1],
        }

    def latency_percentiles_ms(self) -> Optional[dict]:
        """Log-bucket histogram percentiles (count/min/mean/max plus
        p50/p90/p99/p99.9, all in ms), or None before any reply."""
        hist = LatencyHistogram()
        for _t, ms in self.reply_log:
            hist.record(ms)
        return hist.summary()

    def set_reply_rate(self, start: float, end: float) -> RateSummary:
        """Set ``reply_rate`` and ``reply_rate_samples`` together from
        the logged completions in the windows of ``[start, end)``."""
        self.reply_rate_samples = window_rates(
            (t for t, _ms in self.reply_log), start, end)
        self.reply_rate = RateSummary.from_samples(self.reply_rate_samples)
        return self.reply_rate


class HttperfClient:
    """Drives one benchmark run against the server host."""

    def __init__(self, testbed: Testbed, config: Optional[HttperfConfig] = None,
                 name: str = "httperf"):
        self.testbed = testbed
        self.config = config if config is not None else HttperfConfig()
        self.name = name
        self.task = testbed.client_kernel.new_task(
            name, fd_limit=self.config.fd_limit)
        self.sys = SyscallInterface(self.task)
        self._rng = testbed.rng.stream(f"{name}.arrivals")
        self.result = HttperfResult()
        self._outstanding = 0
        #: triggered when the generator has launched everything and every
        #: connection has finished or errored
        self.done: Event = testbed.sim.event("httperf.done")
        self._generator_done = False

    # ------------------------------------------------------------------
    def start(self):
        """Spawn the arrival generator; returns its Process."""
        return spawn(self.testbed.sim, self._generate(), name=self.name)

    def _generate(self):
        sim = self.testbed.sim
        cfg = self.config
        self.result.started_at = sim.now
        interval = 1.0 / cfg.rate
        launched = 0
        deadline = None if cfg.num_conns is not None else sim.now + cfg.duration
        while True:
            if cfg.num_conns is not None:
                if launched >= cfg.num_conns:
                    break
            elif sim.now >= deadline:
                break
            self._outstanding += 1
            spawn(sim, self._connection(), name=f"{self.name}.c{launched}")
            launched += 1
            if cfg.arrival == "poisson":
                gap = self._rng.expovariate(cfg.rate)
            else:
                gap = interval
                if cfg.jitter > 0:
                    gap *= 1.0 + self._rng.uniform(-cfg.jitter, cfg.jitter)
            yield gap
        self.result.finished_at = sim.now
        self._generator_done = True
        self._maybe_done()

    def _maybe_done(self) -> None:
        if (self._generator_done and self._outstanding == 0
                and not self.done.triggered):
            self.partial_summary()
            self.done.trigger(self.result)

    def partial_summary(self) -> RateSummary:
        """Set and return the reply-rate summary of what has completed.

        ``done`` finalizes ``result.reply_rate`` this way; the harness
        calls it as a safety net for a run cut off at its horizon with
        connections still outstanding.  The windows cover the
        measurement span once the generator has finished, and the
        observed range of completions before that.
        """
        res = self.result
        log = res.reply_log
        if self._generator_done:
            return res.set_reply_rate(res.started_at, res.finished_at)
        if log:
            return res.set_reply_rate(log[0][0], log[-1][0] + RATE_WINDOW)
        return res.set_reply_rate(0.0, 0.0)

    # ------------------------------------------------------------------
    def _connection(self):
        try:
            yield from self._connection_body()
        finally:
            self._outstanding -= 1
            self._maybe_done()

    def _connection_body(self):
        sys = self.sys
        sim = self.testbed.sim
        cfg = self.config
        res = self.result
        res.attempts += 1
        t0 = sim.now
        deadline = t0 + cfg.timeout

        try:
            fd = yield from sys.socket()
        except SyscallError as err:
            self._count_error(err)
            return
        if cfg.doc_paths:
            path = self._rng.choice(cfg.doc_paths)
        else:
            path = cfg.doc_path
        try:
            yield from sys.connect(fd, self.testbed.server_addr,
                                   timeout=cfg.timeout)
            yield from sys.write(fd, get_request(path))
        except SyscallError as err:
            self._count_error(err)
            yield from self._close_quietly(fd)
            return

        yield from sys.fcntl(fd, F_SETFL, O_NONBLOCK)
        body = b""
        status: Optional[int] = None
        while True:
            remaining = deadline - sim.now
            if remaining <= 0:
                res.errors.timeouts += 1
                yield from self._close_quietly(fd)
                return
            try:
                ready = yield from sys.poll([(fd, POLLIN)], remaining)
            except SyscallError as err:
                self._count_error(err)
                yield from self._close_quietly(fd)
                return
            if not ready:
                res.errors.timeouts += 1
                yield from self._close_quietly(fd)
                return
            try:
                data = yield from sys.read(fd, READ_CHUNK)
            except SyscallError as err:
                if err.errno_code == EAGAIN:
                    continue
                self._count_error(err)
                yield from self._close_quietly(fd)
                return
            if data == b"":
                break  # EOF: response complete (Connection: close)
            body += data
            if status is None:
                status = parse_status(body)
        yield from self._close_quietly(fd)
        res.completions += 1
        res.bytes_received += len(body)
        if status == 200:
            res.reply_log.append((sim.now, (sim.now - t0) * 1000.0))
        else:
            res.errors.other += 1

    def _count_error(self, err: SyscallError) -> None:
        errors = self.result.errors
        code = err.errno_code
        if code == EMFILE:
            errors.fd_unavail += 1
        elif code == ETIMEDOUT:
            errors.timeouts += 1
        elif code in (ECONNREFUSED, ECONNRESET):
            errors.refused += 1
        else:
            errors.other += 1

    def _close_quietly(self, fd: int):
        try:
            yield from self.sys.close(fd)
        except SyscallError:
            pass
