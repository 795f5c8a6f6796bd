"""Run one benchmark point: (server kind, request rate, inactive load).

This is the unit the paper's figures are made of.  A point builds a fresh
testbed (so TIME-WAIT state never leaks across points -- the simulated
equivalent of the authors waiting out the sixty seconds between runs),
ramps up the inactive-connection pool, runs httperf at the targeted rate,
and reports the reply-rate summary, error percentage, and median
connection time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..http.content import StaticSite
from ..servers.base import BaseServer
from ..servers.hybrid import HybridConfig, HybridServer
from ..servers.phhttpd import PhhttpdConfig, PhhttpdServer
from ..servers.thttpd import (
    DevpollServerConfig,
    EpollServerConfig,
    ThttpdDevpollServer,
    ThttpdEpollServer,
    ThttpdSelectServer,
    ThttpdServer,
)
from ..sim.stats import RateSummary
from .httperf import HttperfClient, HttperfConfig, HttperfResult
from .inactive import InactiveConnectionPool, InactivePoolConfig
from .testbed import Testbed, TestbedConfig

#: server-kind registry: name -> factory(kernel, site, **opts) -> BaseServer
SERVER_KINDS: Dict[str, Callable[..., BaseServer]] = {
    "thttpd": ThttpdServer,
    "thttpd-select": ThttpdSelectServer,
    "thttpd-devpoll": ThttpdDevpollServer,
    "thttpd-epoll": ThttpdEpollServer,
    "phhttpd": PhhttpdServer,
    "hybrid": HybridServer,
}

#: default per-kind config classes (so server_opts can be plain kwargs)
_CONFIG_CLASSES = {
    "thttpd": None,
    "thttpd-select": None,
    "thttpd-devpoll": DevpollServerConfig,
    "thttpd-epoll": EpollServerConfig,
    "phhttpd": PhhttpdConfig,
    "hybrid": HybridConfig,
}

#: event-backend name -> the canonical server kind running that backend.
#: ``BenchmarkPoint.backend`` retargets a point through this table, so
#: ``--backend epoll`` means "the unified thttpd loop on epoll" without
#: callers having to know the historical module names.
BACKEND_TO_KIND: Dict[str, str] = {
    "poll": "thttpd",
    "select": "thttpd-select",
    "devpoll": "thttpd-devpoll",
    "epoll": "thttpd-epoll",
    "rtsig": "phhttpd",
    "hybrid": "hybrid",
    # the live backends run the unified loop on the live runtime; a
    # point naming one must also set runtime="live" (checked below)
    "live-epoll": "thttpd",
    "live-select": "thttpd",
}


@dataclass
class BenchmarkPoint:
    """Everything defining one benchmark run (one x-position of a figure)."""

    server: str = "thttpd"
    #: event-backend name (``repro.events``); when set, the point runs on
    #: the canonical server kind for that backend (``BACKEND_TO_KIND``)
    #: regardless of ``server``.  ``None`` (the default) keeps the
    #: historical behaviour -- and the historical record shape.
    backend: Optional[str] = None
    #: execution substrate: "sim" (the default, simulated kernel) or
    #: "live" (real localhost sockets via :mod:`repro.runtime.live`);
    #: live points need a ``live-*`` backend (or None for the default)
    runtime: str = "sim"
    rate: float = 500.0
    inactive: int = 1
    duration: float = 10.0
    num_conns: Optional[int] = None
    seed: int = 0
    timeout: float = 5.0
    client_fd_limit: int = 16384
    #: kwargs for the server's config dataclass (e.g. use_mmap=False)
    server_opts: Dict[str, Any] = field(default_factory=dict)
    #: override the served document size (default: the paper's 6 KB)
    document_bytes: Optional[int] = None
    #: or serve a whole size distribution; each connection requests a
    #: uniformly drawn document (section 5's size-distribution remark)
    document_sizes: Optional[list] = None
    #: grace period after the last connection launches, letting stragglers
    #: finish or time out before results are read
    drain: float = 0.0
    #: record spans and trace lines on the testbed's tracer
    trace: bool = False
    #: attribute server-CPU time to (subsystem, operation) pairs
    profile: bool = False
    #: sample the server's metrics/per-CPU busy time every N simulated
    #: seconds during the measure window (repro.obs.timeline); 0 = off
    timeline: float = 0.0
    #: simulated CPUs in the server host (>1 builds an SMP domain)
    cpus: int = 1
    #: prefork workers sharing the port via SO_REUSEPORT; 1 keeps the
    #: historical single event-loop process
    workers: int = 1
    #: accept-sharding policy for reuse-port groups when workers > 1:
    #: "hash" (client-port hash) or "round-robin"
    dispatch: str = "hash"
    #: override the testbed link speed (None = the paper's 100 Mbit/s);
    #: the SMP scaling figure runs on a gigabit link, which a multi-CPU
    #: host can out-serve the historical switch on
    bandwidth_bps: Optional[float] = None


@dataclass
class PointResult:
    """The measurements run_point() extracted for one BenchmarkPoint."""

    point: BenchmarkPoint
    reply_rate: RateSummary
    error_percent: float
    median_conn_ms: Optional[float]
    httperf: HttperfResult
    server_stats: Any
    server: BaseServer
    testbed: Testbed
    cpu_utilization: float
    inactive_reconnects: int
    time_wait_server: int
    time_wait_client: int
    #: server-CPU attribution, when the point ran with profile=True
    profiler: Optional[Any] = None
    #: repro.obs.timeline.TimelineSampler, when the point sampled one
    timeline: Optional[Any] = None
    #: backend-pathology block (repro.obs.causal.collect_pathologies),
    #: when the point ran with trace=True
    pathologies: Optional[Dict[str, Any]] = None

    def row(self) -> Dict[str, float]:
        """The numbers a figure plots for this x-position."""
        return {
            "rate": self.point.rate,
            "avg": self.reply_rate.avg,
            "min": self.reply_rate.min,
            "max": self.reply_rate.max,
            "stddev": self.reply_rate.stddev,
            "errors_pct": self.error_percent,
            "median_ms": (self.median_conn_ms
                          if self.median_conn_ms is not None else float("nan")),
            "p99_ms": (self.httperf.conn_time_quantile_ms(0.99)
                       if self.median_conn_ms is not None else float("nan")),
        }


def resolve_kind(point: BenchmarkPoint) -> str:
    """The server kind a point actually runs (backend-aware)."""
    if point.backend is None:
        return point.server
    try:
        return BACKEND_TO_KIND[point.backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {point.backend!r}; choose from "
            f"{sorted(BACKEND_TO_KIND)}") from None


def make_server(kind: str, kernel, site: Optional[StaticSite] = None,
                **opts) -> BaseServer:
    """Instantiate a server by registry name with config kwargs."""
    try:
        factory = SERVER_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown server kind {kind!r}; choose from {sorted(SERVER_KINDS)}"
        ) from None
    config_cls = _CONFIG_CLASSES.get(kind)
    if opts:
        if config_cls is None:
            from ..servers.base import ServerConfig

            config = ServerConfig(**opts)
        else:
            config = config_cls(**opts)
        return factory(kernel, site, config)
    return factory(kernel, site)


def run_point(point: BenchmarkPoint):
    """Execute one benchmark point: a cold simulated testbed, or -- when
    ``point.runtime == "live"`` -- real localhost sockets."""
    live_backend = point.backend is not None and \
        point.backend.startswith("live-")
    if point.runtime == "live":
        from .live import run_live_point

        return run_live_point(point)
    if point.runtime != "sim":
        raise ValueError(f"unknown runtime {point.runtime!r}; "
                         f"choose 'sim' or 'live'")
    if live_backend:
        raise ValueError(f"backend {point.backend!r} needs runtime='live'")
    tb_kwargs: Dict[str, Any] = {}
    if point.bandwidth_bps is not None:
        tb_kwargs["bandwidth_bps"] = point.bandwidth_bps
    testbed = Testbed(TestbedConfig(
        seed=point.seed, trace=point.trace, profile=point.profile,
        server_cpus=point.cpus, **tb_kwargs))
    doc_paths = None
    if point.document_sizes:
        site = StaticSite.size_distribution(point.document_sizes)
        doc_paths = site.paths()
    elif point.document_bytes is not None:
        site = StaticSite.single_document(point.document_bytes)
    else:
        site = StaticSite()
    kind = resolve_kind(point)
    if point.workers > 1:
        from ..servers.pool import WorkerPool

        testbed.server_stack.reuseport_dispatch = point.dispatch

        def worker_factory(_index: int) -> BaseServer:
            opts = dict(point.server_opts)
            opts["reuse_port"] = True
            return make_server(kind, testbed.server_kernel, site, **opts)

        server = WorkerPool(testbed.server_kernel, worker_factory,
                            workers=point.workers)
    else:
        server = make_server(kind, testbed.server_kernel, site,
                             **point.server_opts)
    server.start()
    testbed.run(until=testbed.sim.now + 0.1)  # let the listener come up

    # ramp up the inactive load and wait for it to be fully established
    ramp_span = testbed.tracer.begin(testbed.sim.now, "bench", "ramp",
                                     inactive=point.inactive)
    pool = InactiveConnectionPool(
        testbed, InactivePoolConfig(count=point.inactive))
    pool.start()
    ramp_deadline = testbed.sim.now + 30.0
    while (not pool.all_connected.triggered
           and testbed.sim.now < ramp_deadline):
        testbed.run(until=testbed.sim.now + 0.25)
    testbed.tracer.end(testbed.sim.now, ramp_span,
                       connected=pool.all_connected.triggered)

    measure_start = testbed.sim.now
    measure_span = testbed.tracer.begin(
        testbed.sim.now, "bench", "measure",
        server=point.server, rate=point.rate)
    busy_before = testbed.server_kernel.cpu.busy_time
    sampler = None
    if point.timeline > 0:
        from ..obs.timeline import TimelineSampler

        sampler = TimelineSampler(testbed, point.timeline)
        sampler.start()
    client = HttperfClient(testbed, HttperfConfig(
        rate=point.rate,
        duration=point.duration,
        num_conns=point.num_conns,
        timeout=point.timeout,
        fd_limit=point.client_fd_limit,
        doc_paths=doc_paths,
    ))
    client.start()
    # run until every connection resolved (success or error); the client
    # timeout bounds this, so add it to the horizon
    horizon = (measure_start + point.duration + point.timeout
               + point.drain + 30.0)
    while not client.done.triggered and testbed.sim.now < horizon:
        testbed.run(until=testbed.sim.now + 0.5)
    testbed.tracer.end(testbed.sim.now, measure_span,
                       done=client.done.triggered)
    if sampler is not None:
        sampler.stop()
    pool.stop()
    server.stop()

    result: HttperfResult = client.result
    if not client.done.triggered:
        # harness safety net -- should not happen; summarize what we have
        result.reply_rate = client.partial_summary()
    pathologies = None
    if point.trace:
        from ..obs.causal import collect_pathologies

        pathologies = collect_pathologies(server, testbed.server_kernel)
    return PointResult(
        point=point,
        reply_rate=result.reply_rate,
        error_percent=result.error_percent,
        median_conn_ms=result.median_conn_time_ms(),
        httperf=result,
        server_stats=server.stats,
        server=server,
        testbed=testbed,
        cpu_utilization=min(1.0, (
            (testbed.server_kernel.cpu.busy_time - busy_before)
            / max(1e-9, (testbed.sim.now - measure_start)
                  * getattr(testbed.server_kernel.cpu, "capacity", 1)))),
        inactive_reconnects=pool.reconnects,
        time_wait_server=testbed.server_stack.time_wait_count,
        time_wait_client=testbed.client_stack.time_wait_count,
        profiler=testbed.profiler,
        timeline=sampler,
        pathologies=pathologies,
    )
