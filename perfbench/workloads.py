"""The benchmark's workloads, and one repetition of each.

Three workloads run simulated points at paper scale; one runs the
unified thttpd loop over real localhost sockets.  A repetition is split
into *setup* (imports, testbed or runtime, server start, inactive ramp)
and a *measured phase* (the client's traffic), so host time for each can
be reported apart.  ``repro.bench.run_point`` runs both halves as one
call, so the simulated repetition below rebuilds a point from the same
public pieces, in the same order; ``pin.py`` records ``run_point``'s own
digest per seed, and every repetition compares its record against it.

Everything imported from ``repro`` is imported inside the functions, so
the importing counts towards the repetition's set-up time.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from checks import (PINNED_SEEDS, check_expectations, check_reply,
                    check_sim_record, failed_ratio, percentile)
from hostspeed import ScaledClock

#: syscall names reported one by one as ``kernel.sys.<name>`` (calls the
#: server made during the measured phase); any other name adds to
#: ``kernel.sys.other``
SYSCALLS = ("accept", "read", "write", "close", "fcntl", "poll", "select",
            "ioctl", "epoll_wait", "epoll_ctl", "sigtimedwait", "sendmsg",
            "recvmsg")
#: real syscalls timed by the live runtime, as
#: ``runtime.sys_us_per_call.<name>``
LIVE_SYSCALLS = ("accept", "read", "write", "close", "epoll_wait")

#: per-layer counts every workload reports (0 where a layer is idle), as
#: name -> (unit, which direction is better)
COUNTS = {
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "sim.heap_compactions": ("count", "lower"),
    "net.syn_drops": ("count", "lower"),
    "net.syn_retransmits": ("count", "lower"),
    "kernel.syscalls_per_reply": ("calls/reply", "lower"),
    "kernel.rtsig_posted": ("count", "lower"),
    "kernel.rtsig_overflows": ("count", "lower"),
    "core.callbacks_hinted": ("count", "lower"),
    "core.hint_ratio": ("ratio", "higher"),
    "events.events_per_wait": ("ratio", "higher"),
    "events.spurious_wakeups": ("count", "lower"),
    "servers.loops": ("count", "lower"),
    "smp.migrations": ("count", "lower"),
    "smp.lock_wait_s": ("s", "lower"),
    "bench.failed_ratio": ("ratio", "lower"),
    **{f"kernel.sys.{name}": ("count", "lower")
       for name in SYSCALLS + ("other",)},
    **{f"runtime.sys_us_per_call.{name}": ("us", "lower")
       for name in LIVE_SYSCALLS},
}

DOC_PATH = "/index.html"
#: live requests between two laps of the measured phase's clock
LIVE_LAP = 200
ProfilerFactory = Callable[[], Any]


@dataclass(frozen=True)
class SimWorkload:
    """One simulated benchmark point, open-loop (httperf Poisson arrivals)."""

    name: str
    server: str
    rate: float
    inactive: int
    duration: float
    cpus: int = 1
    workers: int = 1
    gigabit: bool = False
    #: server config overrides, as (name, value) pairs
    server_opts: Tuple[Tuple[str, Any], ...] = ()
    #: counts that must be > 0 / == 0, or the workload has stopped
    #: exercising the path it was chosen for
    positive: Tuple[str, ...] = ()
    zero: Tuple[str, ...] = ()

    def point(self, seed: int):
        from repro.bench import BenchmarkPoint
        from repro.net.link import ETHERNET_GIGABIT

        return BenchmarkPoint(
            server=self.server, rate=self.rate, inactive=self.inactive,
            duration=self.duration, seed=seed, cpus=self.cpus,
            workers=self.workers, server_opts=dict(self.server_opts),
            bandwidth_bps=ETHERNET_GIGABIT if self.gigabit else None)

    def run(self, seed: int, setup: ScaledClock, digests: Dict[str, str],
            profiler: Optional[ProfilerFactory] = None) -> Dict[str, Any]:
        return run_sim(self, seed, setup, digests.get(str(seed)), profiler)


@dataclass(frozen=True)
class LiveWorkload:
    """Closed loop over real sockets: one client, one connection at a time."""

    name: str
    backend: str
    requests: int
    zero: Tuple[str, ...] = ()

    def run(self, seed: int, setup: ScaledClock, digests: Dict[str, str],
            profiler: Optional[ProfilerFactory] = None) -> Dict[str, Any]:
        return run_live(self, seed, setup, profiler)


WORKLOADS = {w.name: w for w in (
    SimWorkload("devpoll_idle", "thttpd-devpoll", rate=800.0, inactive=501,
                duration=4.0, positive=("core.callbacks_hinted",),
                zero=("bench.failed_ratio", "kernel.rtsig_overflows")),
    SimWorkload("select_smp_overload", "thttpd-select", rate=2400.0,
                inactive=1004, duration=1.5, cpus=4, workers=4, gigabit=True,
                # no idle sweep closes the inactive connections: on some
                # seeds the measured phase would end before the sweep and
                # on others after it, with 15% more work for the reconnects
                server_opts=(("idle_timeout", 3600.0),),
                positive=("net.syn_retransmits", "smp.lock_wait_s"),
                zero=("core.callbacks_hinted", "kernel.rtsig_overflows")),
    SimWorkload("rtsig_overflow", "phhttpd", rate=800.0, inactive=501,
                duration=8.0, positive=("kernel.rtsig_overflows",),
                zero=("core.callbacks_hinted",)),
    LiveWorkload("live_epoll", "live-epoll", requests=10000,
                 zero=("bench.failed_ratio",)),
)}


# -- counts ------------------------------------------------------------

def _zero_counts() -> Dict[str, float]:
    return dict.fromkeys(COUNTS, 0)


def _sys_deltas(before: Dict[str, Any], after: Dict[str, Any],
                counts: Dict[str, float]) -> int:
    """Fill ``kernel.sys.*`` from two metrics snapshots; returns the total."""
    total = 0
    for key, value in after.items():
        if not key.startswith("sys."):
            continue
        delta = value - before.get(key, 0)
        name = key[4:] if key[4:] in SYSCALLS else "other"
        counts[f"kernel.sys.{name}"] += delta
        total += delta
    return total


def _backend_counts(block: Dict[str, Any], counts: Dict[str, float]) -> None:
    """Fill the events/kernel/core/smp counts from the
    ``repro.obs.causal.collect_pathologies`` block."""
    backends = block.get("backends", [])
    waits = sum(b["waits"] for b in backends)
    counts["events.events_per_wait"] = (
        sum(b["events"] for b in backends) / waits if waits else 0.0)
    counts["events.spurious_wakeups"] = sum(
        b["spurious_wakeups"] for b in backends)
    queues = block.get("signal_queue", [])
    queues = queues if isinstance(queues, list) else [queues]
    counts["kernel.rtsig_posted"] = sum(q["posted"] for q in queues)
    counts["kernel.rtsig_overflows"] = sum(q["overflows"] for q in queues)
    devpoll = block.get("devpoll")
    if devpoll is not None:
        hinted = devpoll["callbacks_hinted"]
        callbacks = (hinted + devpoll["callbacks_full"]
                     + devpoll["callbacks_ready_recheck"])
        counts["core.callbacks_hinted"] = hinted
        counts["core.hint_ratio"] = hinted / callbacks if callbacks else 0.0
    smp = block.get("smp")
    if smp is not None:
        counts["smp.lock_wait_s"] = (smp["bkl_wait_s"] + smp["rwlock_wait_rd_s"]
                                     + smp["rwlock_wait_wr_s"])


# -- simulated repetition ---------------------------------------------

def run_sim(spec: SimWorkload, seed: int, setup: ScaledClock,
            pinned: Optional[str],
            profiler: Optional[ProfilerFactory] = None) -> Dict[str, Any]:
    """One simulated point, built exactly as ``run_point`` builds it.

    The process is single-threaded, so both phases are timed in process
    CPU seconds, which leaves out time other tenants of the host take.
    """
    from repro.bench import (HttperfClient, HttperfConfig,
                             InactiveConnectionPool, InactivePoolConfig,
                             PointResult, Testbed, TestbedConfig,
                             make_server, point_record)
    from repro.http.content import StaticSite
    from repro.obs.causal import collect_pathologies
    from repro.servers.pool import WorkerPool

    setup.lap()
    point = spec.point(seed)
    tb_kwargs = {}
    if point.bandwidth_bps is not None:
        tb_kwargs["bandwidth_bps"] = point.bandwidth_bps
    testbed = Testbed(TestbedConfig(seed=point.seed, server_cpus=point.cpus,
                                    **tb_kwargs))
    site = StaticSite()
    if point.workers > 1:
        testbed.server_stack.reuseport_dispatch = point.dispatch

        def worker_factory(_index: int):
            return make_server(spec.server, testbed.server_kernel, site,
                               **point.server_opts, reuse_port=True)

        server = WorkerPool(testbed.server_kernel, worker_factory,
                            workers=point.workers)
    else:
        server = make_server(spec.server, testbed.server_kernel, site,
                             **point.server_opts)
    server.start()
    testbed.run(until=testbed.sim.now + 0.1)
    setup.lap()
    pool = InactiveConnectionPool(testbed,
                                  InactivePoolConfig(count=point.inactive))
    pool.start()
    ramp_deadline = testbed.sim.now + 30.0
    while (not pool.all_connected.triggered
           and testbed.sim.now < ramp_deadline):
        testbed.run(until=testbed.sim.now + 0.25)
        setup.lap()
    setup.lap()

    sim = testbed.sim
    kernels = (testbed.server_kernel, testbed.client_kernel)
    before = [k.metrics.snapshot() for k in kernels]
    events0, compactions0 = sim.events_processed, sim.compactions
    measure_start = sim.now
    busy_before = testbed.server_kernel.cpu.busy_time
    horizon = (measure_start + point.duration + point.timeout
               + point.drain + 30.0)

    prof = profiler() if profiler is not None else None

    def measure():
        clock = ScaledClock(time.process_time, prof)
        client = HttperfClient(testbed, HttperfConfig(
            rate=point.rate, duration=point.duration,
            num_conns=point.num_conns, timeout=point.timeout,
            fd_limit=point.client_fd_limit))
        client.start()
        while not client.done.triggered and sim.now < horizon:
            # run_point's 0.5 s steps, each cut in five so that the host
            # speed is sampled often; only the steps' ends are observable
            end = sim.now + 0.5
            for cut in (0.1, 0.2, 0.3, 0.4):
                testbed.run(until=end - 0.5 + cut)
                clock.lap()
            testbed.run(until=end)
            clock.lap()
        pool.stop()
        server.stop()
        clock.lap()
        return client, clock

    client, clock = measure() if prof is None else prof.runcall(measure)

    result = client.result
    if not client.done.triggered:
        result.reply_rate = client.partial_summary()
    record = point_record(PointResult(
        point=point, reply_rate=result.reply_rate,
        error_percent=result.error_percent,
        median_conn_ms=result.median_conn_time_ms(), httperf=result,
        server_stats=server.stats, server=server, testbed=testbed,
        cpu_utilization=min(1.0, (
            (testbed.server_kernel.cpu.busy_time - busy_before)
            / max(1e-9, (sim.now - measure_start)
                  * getattr(testbed.server_kernel.cpu, "capacity", 1)))),
        inactive_reconnects=pool.reconnects,
        time_wait_server=testbed.server_stack.time_wait_count,
        time_wait_client=testbed.client_stack.time_wait_count))

    after = [k.metrics.snapshot() for k in kernels]
    counts = _zero_counts()
    events = sim.events_processed - events0
    counts["sim.events"] = events
    counts["sim.events_per_s"] = events / clock.scaled
    counts["sim.heap_compactions"] = sim.compactions - compactions0
    for name in ("syn_drops", "syn_retransmits"):
        key = f"tcp.{name}"
        counts[f"net.{name}"] = sum(a.get(key, 0) - b.get(key, 0)
                                    for b, a in zip(before, after))
    syscalls = _sys_deltas(before[0], after[0], counts)
    counts["kernel.syscalls_per_reply"] = syscalls / max(1, result.replies_ok)
    _backend_counts(collect_pathologies(server, testbed.server_kernel),
                    counts)
    # a worker pool's workers share one scoreboard: read the total once
    counts["servers.loops"] = server.stats.loops
    smp = testbed.server_kernel.smp
    if smp is not None:
        counts["smp.migrations"] = smp.scheduler.migrations
    counts["bench.failed_ratio"] = failed_ratio(
        result.attempts - result.replies_ok, result.attempts)

    problems = check_sim_record(record, pinned)
    if pinned is None and seed in PINNED_SEEDS:
        problems.append(f"digests.json has no digest for seed {seed}: "
                        "re-run perfbench/pin.py")
    problems += check_expectations(counts, spec.positive, spec.zero)
    return {
        "setup_s": setup.scaled,
        "run_s": clock.scaled,
        "setup_raw_s": setup.raw,
        "run_raw_s": clock.raw,
        "attempted": result.attempts,
        "failed": result.attempts if problems else 0,
        "replies_ok": result.replies_ok,
        "latency_p50_ms": result.conn_time_quantile_ms(0.5) or 0.0,
        "latency_p90_ms": result.conn_time_quantile_ms(0.9) or 0.0,
        "counts": counts,
        "problems": problems,
        "digest_checked": pinned is not None,
        "profiles": [prof] if prof is not None else [],
    }


# -- live repetition ---------------------------------------------------

class _ThreadProfiles:
    """Start one profiler in every thread created while installed.

    ``threading.setprofile`` hands :meth:`hook` to each new thread; its
    first call swaps itself for a fresh profiler, so the thread runs
    under cProfile from its first frame on.
    """

    def __init__(self, factory: ProfilerFactory) -> None:
        self.factory = factory
        self.profiles = []

    def hook(self, frame, event, arg) -> None:
        prof = self.factory()
        self.profiles.append(prof)
        prof.enable()


def fetch(address, request: bytes, document: bytes) -> Optional[float]:
    """One HTTP/1.0 exchange: its latency when the reply is a 200 carrying
    ``document``, None when it is not or the connection failed (refused,
    reset, timed out)."""
    t0 = time.perf_counter()
    try:
        with socket.create_connection(address, timeout=5.0) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    except OSError:
        return None
    latency = time.perf_counter() - t0
    return latency if check_reply(b"".join(chunks), document) else None


def run_live(spec: LiveWorkload, seed: int, setup: ScaledClock,
             profiler: Optional[ProfilerFactory] = None) -> Dict[str, Any]:
    """The unified thttpd loop on a live backend, driven closed-loop.

    The inputs do not depend on the seed: every request fetches the
    one 6 KB document.  The measured phase is timed in wall seconds,
    since the client and the server thread wait on each other; each
    latency is scaled with the lap it fell in.
    """
    from repro.obs.causal import collect_pathologies
    from repro.runtime.live import LiveRuntime
    from repro.servers.thttpd import ThttpdServer

    setup.lap()

    threads = _ThreadProfiles(profiler) if profiler is not None else None
    runtime = LiveRuntime()
    server = ThttpdServer(runtime, backend=spec.backend)
    if threads is not None:
        threading.setprofile(threads.hook)
    server.start()
    if threads is not None:
        threading.setprofile(None)
    deadline = time.monotonic() + 5.0
    while runtime.listen_address is None and time.monotonic() < deadline:
        time.sleep(0.001)
    if runtime.listen_address is None:
        runtime.stop_server(server)
        raise RuntimeError("live server did not start listening")
    address = runtime.listen_address
    document = server.site.documents[DOC_PATH]
    request = (f"GET {DOC_PATH} HTTP/1.0\r\nHost: localhost\r\n\r\n"
               .encode("ascii"))
    setup.lap()

    before = runtime.kernel.metrics.snapshot()
    latencies = []
    raw_latencies = []
    main_prof = profiler() if profiler is not None else None

    def measure():
        clock = ScaledClock(time.perf_counter, main_prof)
        bad = 0
        lap = []
        for i in range(1, spec.requests + 1):
            latency = fetch(address, request, document)
            if latency is None:
                bad += 1
            else:
                lap.append(latency)
            if i % LIVE_LAP == 0 or i == spec.requests:
                factor = clock.lap()
                latencies.extend(x * factor for x in lap)
                raw_latencies.extend(lap)
                lap = []
        return bad, clock

    bad, clock = (measure() if main_prof is None
                  else main_prof.runcall(measure))
    after = runtime.kernel.metrics.snapshot()
    runtime.stop_server(server)

    counts = _zero_counts()
    ok = len(latencies)
    syscalls = _sys_deltas(before, after, counts)
    counts["kernel.syscalls_per_reply"] = syscalls / max(1, ok)
    _backend_counts(collect_pathologies(server, runtime.kernel), counts)
    counts["servers.loops"] = server.stats.loops
    for name, row in runtime.measured_summary().items():
        if name in LIVE_SYSCALLS:
            counts[f"runtime.sys_us_per_call.{name}"] = row["wall_us_per_call"]
    counts["bench.failed_ratio"] = failed_ratio(bad, spec.requests)

    problems = [f"{bad} of {spec.requests} requests failed or were not "
                f"answered 200 with the {len(document)}-byte document"
                ] if bad else []
    problems += check_expectations(counts, zero=spec.zero)

    def ms(values, q: float) -> float:
        return percentile(values, q) * 1e3 if values else 0.0

    return {
        "setup_s": setup.scaled,
        "run_s": clock.scaled,
        "setup_raw_s": setup.raw,
        "run_raw_s": clock.raw,
        "latency_raw_p50_ms": ms(raw_latencies, 0.5),
        "latency_raw_p90_ms": ms(raw_latencies, 0.9),
        "attempted": spec.requests,
        "failed": bad,
        "replies_ok": ok,
        "latency_p50_ms": ms(latencies, 0.5),
        "latency_p90_ms": ms(latencies, 0.9),
        "counts": counts,
        "problems": problems,
        "digest_checked": False,
        "profiles": [main_prof] + threads.profiles if threads else [],
    }
