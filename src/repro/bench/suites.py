"""Named benchmark suites and canonical ``BENCH_<suite>.json`` artifacts.

A *suite* is a fixed, named list of benchmark points -- the unit CI and
humans rerun and diff.  ``run_suite`` executes every point with the CPU
profiler attached and emits one schema-versioned artifact holding, per
point: the full v2 point record (config + reply rate + error classes +
client/server latency percentiles), the profiler's (subsystem,
operation) attribution, and real wall-clock cost.  The suite's *config
fingerprint* -- a hash over every point's re-runnable configuration --
travels in the artifact so ``repro diff`` fails a diff of runs of
different experiments (the telemetry-pipeline equivalent of the paper's
"same testbed, same workload" discipline).

Everything in the artifact except the wall-clock/host fields
(``created_unix``, ``jobs``, ``selfperf``, and the per-point
:data:`~repro.bench.records.WALL_CLOCK_FIELDS`) is a function of the
(seeded, simulated) configuration, so two runs of the same suite on any
machine -- serial or with ``jobs=N`` -- produce byte-identical
measurements, which is what makes a checked-in baseline meaningful.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .harness import BACKEND_TO_KIND, BenchmarkPoint
from .parallel import PointOutcome, run_points
from .records import RECORD_VERSION, point_record
from .sweeps import QUICK_RATES

#: bump when the artifact's shape changes; readers accept <= this
#:
#: 2 -- adds ``jobs`` and the harness-speed numbers: a top-level
#:      ``selfperf`` block (engine micro-benchmark) plus per-point
#:      ``sim_events``/``sim_wall_seconds``/``events_per_second``;
#:      failed points appear as ``{"failed": true, "error": ...}``
#:      entries instead of aborting the run.
#: 3 -- SMP: per-point ``cpus``/``workers``/``dispatch`` config keys and
#:      a top-level ``cpus``/``workers`` marker when ``run_suite``
#:      retargets the whole suite; all of them appear only when
#:      non-default, so uniprocessor artifacts keep the v2 shape (and
#:      the pre-SMP fingerprints).
ARTIFACT_VERSION = 3


@dataclass(frozen=True)
class BenchSuite:
    """A named, ordered set of benchmark points."""

    name: str
    description: str
    points: Tuple[BenchmarkPoint, ...]


def _quick_points(duration: float, rates=QUICK_RATES, inactive=251,
                  servers=("thttpd", "thttpd-devpoll", "phhttpd")):
    return tuple(
        BenchmarkPoint(server=server, rate=float(rate), inactive=inactive,
                       duration=duration)
        for server in servers for rate in rates)


#: suite registry.  ``smoke`` is the CI gate (seconds of wall clock);
#: ``quick`` is the three-server sweep at the paper's middle load;
#: ``servers`` covers every registered event model at one operating
#: point, so a refactor touching a single backend cannot hide.
SUITES: Dict[str, BenchSuite] = {
    "smoke": BenchSuite(
        "smoke",
        "CI gate: the three event models plus a loaded poll point, "
        "~2 simulated seconds each",
        (
            BenchmarkPoint(server="thttpd", rate=150.0, inactive=1,
                           duration=1.5),
            BenchmarkPoint(server="thttpd", rate=150.0, inactive=50,
                           duration=1.5),
            BenchmarkPoint(server="thttpd-devpoll", rate=150.0, inactive=50,
                           duration=1.5),
            BenchmarkPoint(server="phhttpd", rate=150.0, inactive=50,
                           duration=1.5),
        )),
    "servers": BenchSuite(
        "servers",
        "every registered server at one moderate operating point",
        tuple(
            BenchmarkPoint(server=server, rate=200.0, inactive=100,
                           duration=2.0)
            for server in ("thttpd", "thttpd-select", "thttpd-devpoll",
                           "phhttpd", "hybrid"))),
    "quick": BenchSuite(
        "quick",
        "three servers x three rates at the paper's 251-inactive load "
        "(minutes of wall clock)",
        _quick_points(duration=5.0)),
    "backends": BenchSuite(
        "backends",
        "one smoke-scale point per event backend (select, poll, devpoll, "
        "rtsig, epoll, hybrid) through the unified repro.events API",
        tuple(
            BenchmarkPoint(server=BACKEND_TO_KIND[backend], backend=backend,
                           rate=150.0, inactive=50, duration=1.5)
            for backend in ("select", "poll", "devpoll", "rtsig", "epoll",
                            "hybrid"))),
}


# ---------------------------------------------------------------------------
# config fingerprint
# ---------------------------------------------------------------------------

def point_config(point: BenchmarkPoint) -> Dict[str, Any]:
    """The re-runnable configuration of one point, canonically typed.

    The ``backend`` key appears only when the point pins one, so the
    fingerprints of pre-existing suites (and their checked-in baseline
    artifacts) are unchanged by the event-backend layer.
    """
    config = {
        "server": point.server,
        "rate": point.rate,
        "inactive": point.inactive,
        "duration": point.duration,
        "num_conns": point.num_conns,
        "seed": point.seed,
        "timeout": point.timeout,
        "client_fd_limit": point.client_fd_limit,
        "drain": point.drain,
        "document_bytes": point.document_bytes,
        "document_sizes": (list(point.document_sizes)
                           if point.document_sizes is not None else None),
        "server_opts": {k: repr(v) for k, v in
                        sorted(point.server_opts.items())},
    }
    if point.backend is not None:
        config["backend"] = point.backend
    if point.runtime != "sim":
        config["runtime"] = point.runtime
    if point.cpus != 1:
        config["cpus"] = point.cpus
    if point.workers != 1:
        config["workers"] = point.workers
    if point.dispatch != "hash":
        config["dispatch"] = point.dispatch
    if point.bandwidth_bps is not None:
        config["bandwidth_bps"] = point.bandwidth_bps
    if point.timeline > 0:
        config["timeline"] = point.timeline
    return config


def suite_fingerprint(suite: BenchSuite) -> str:
    """Hash of every point's configuration (order-sensitive)."""
    payload = json.dumps([point_config(p) for p in suite.points],
                         sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def point_label(point: BenchmarkPoint) -> str:
    """Stable human/machine key for one point within a suite."""
    return f"{point.server}@{point.rate:g}/{point.inactive}"


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _outcome_entry(outcome: PointOutcome) -> Dict[str, Any]:
    """One point's artifact entry (success or failure)."""
    if outcome.ok:
        entry = point_record(outcome.result)
        profiler = getattr(outcome.result, "profiler", None)
        if profiler is not None:
            entry["profile"] = profiler.report().as_dict()
    else:
        entry = {
            "failed": True,
            "error": outcome.error or "unknown error",
            "server": outcome.point.server,
            "rate": outcome.point.rate,
            "inactive": outcome.point.inactive,
        }
    entry["label"] = point_label(outcome.point)
    entry["wall_clock_s"] = round(outcome.wall_clock_s, 3)
    entry["sim_events"] = outcome.sim_events
    entry["sim_wall_seconds"] = round(outcome.sim_wall_seconds, 3)
    entry["events_per_second"] = round(outcome.events_per_second, 1)
    return entry


def run_suite(suite: Union[str, BenchSuite], trace: bool = False,
              on_point: Optional[Callable[[Dict[str, Any]], None]] = None,
              jobs: int = 1, selfperf: bool = True,
              backend: Optional[str] = None,
              cpus: Optional[int] = None,
              workers: Optional[int] = None) -> Dict[str, Any]:
    """Run every point of a suite and return the artifact dict.

    ``on_point`` (if given) is called with each point's artifact entry
    as it completes -- the CLI uses it for progress lines.  It runs
    only in the parent process; under ``jobs > 1`` entries arrive in
    completion order while the artifact's ``points`` list stays in
    suite order.  A point that crashes becomes a ``{"failed": true}``
    entry instead of aborting the suite.

    ``selfperf`` appends the harness-speed micro-benchmark block (see
    :mod:`repro.bench.selfperf`); disable it for tests that only need
    the measurement records.

    ``backend`` retargets *every* point onto one event backend (the CI
    backend matrix runs the smoke suite once per backend this way).
    The retargeted points carry the backend in their configs, so the
    artifact's fingerprint distinguishes the matrix legs from the
    untouched suite.

    ``cpus``/``workers`` likewise retarget every point onto an SMP
    server host (the CI SMP matrix runs the smoke suite this way).
    ``None`` leaves the suite's own values alone; the regression gate
    keeps comparing the untouched ``cpus=1`` suite against its
    checked-in baseline.
    """
    if isinstance(suite, str):
        try:
            suite = SUITES[suite]
        except KeyError:
            raise ValueError(f"unknown suite {suite!r}; choose from "
                             f"{sorted(SUITES)}") from None
    if backend is not None:
        if backend not in BACKEND_TO_KIND:
            raise ValueError(f"unknown backend {backend!r}; choose from "
                             f"{sorted(BACKEND_TO_KIND)}")
        suite = BenchSuite(
            suite.name, suite.description,
            tuple(replace(p, server=BACKEND_TO_KIND[backend],
                          backend=backend)
                  for p in suite.points))
    if cpus is not None or workers is not None:
        smp_kwargs: Dict[str, Any] = {}
        if cpus is not None:
            if cpus < 1:
                raise ValueError(f"cpus must be >= 1, got {cpus}")
            smp_kwargs["cpus"] = cpus
        if workers is not None:
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            smp_kwargs["workers"] = workers
        suite = BenchSuite(
            suite.name, suite.description,
            tuple(replace(p, **smp_kwargs) for p in suite.points))
    suite_t0 = time.perf_counter()
    run_specs = [replace(point, profile=True, trace=trace)
                 for point in suite.points]
    entries: Dict[int, Dict[str, Any]] = {}

    def settle(outcome: PointOutcome) -> None:
        entry = _outcome_entry(outcome)
        entries[outcome.index] = entry
        if on_point is not None:
            on_point(entry)

    run_points(run_specs, jobs=jobs, on_result=settle)
    points: List[Dict[str, Any]] = [entries[i] for i in range(len(run_specs))]
    artifact = {
        "artifact_version": ARTIFACT_VERSION,
        "record_version": RECORD_VERSION,
        "suite": suite.name,
        "description": suite.description,
        "fingerprint": suite_fingerprint(suite),
        "created_unix": round(time.time(), 3),
        "wall_clock_s": round(time.perf_counter() - suite_t0, 3),
        "jobs": max(1, jobs),
        "points": points,
    }
    if backend is not None:
        artifact["backend"] = backend
    if cpus is not None:
        artifact["cpus"] = cpus
    if workers is not None:
        artifact["workers"] = workers
    if selfperf:
        from .selfperf import run_selfperf

        artifact["selfperf"] = run_selfperf()
    return artifact


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

def dump_artifact(artifact: Dict[str, Any], path: str) -> None:
    """Write a BENCH artifact as pretty-printed, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str) -> Dict[str, Any]:
    """Read a BENCH artifact (version-checked, like figure records)."""
    with open(path, encoding="utf-8") as fh:
        return check_artifact(json.load(fh))


def check_artifact(artifact: Dict[str, Any]) -> Dict[str, Any]:
    """Return a BENCH artifact whose version this build reads; raise
    ValueError on any other version."""
    version = artifact.get("artifact_version")
    if not isinstance(version, int) or not 1 <= version <= ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {version!r} "
                         f"(this build reads 1..{ARTIFACT_VERSION})")
    return artifact
