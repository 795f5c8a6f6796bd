"""Parallel benchmark-point execution.

Every :class:`~repro.bench.harness.BenchmarkPoint` is a fully seeded,
self-contained simulation -- a fresh :class:`Simulator`, two kernels,
and a client per point, with no shared mutable state -- so a sweep or a
suite is an embarrassingly parallel workload.  :func:`run_points` fans
points across a :class:`~concurrent.futures.ProcessPoolExecutor` and
reassembles results **in input order**, with three guarantees:

* **Determinism.**  A point's measurements are a pure function of its
  seeded configuration, so the parallel path produces byte-identical
  point records to the serial path (wall-clock fields aside; see
  :data:`WALL_CLOCK_FIELDS` in :mod:`repro.bench.records`).  Workers
  ship back plain data (the canonical point record, the row a figure
  plots, the profiler report as a dict) rather than live simulators.

* **Crash isolation.**  A point whose server raises is reported as a
  failed :class:`PointOutcome` -- it cannot kill the sweep or take
  other points down with it.  It is not retried: a point is a seeded
  simulation with no I/O, so it would raise the same way again.  A
  broken pool (worker killed by a signal) degrades to in-process
  execution for the remaining points.

* **Parent-only progress.**  The optional ``on_result`` callback runs
  only in the parent process, as outcomes complete, so progress lines
  cannot interleave across workers.

``jobs=1`` (the default everywhere) bypasses the pool entirely and runs
in-process, which keeps the checked-in baselines byte-stable and the
serial path free of multiprocessing overhead.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.profiler import ProfileReport
from .harness import BenchmarkPoint, run_point
from .records import point_record


# ---------------------------------------------------------------------------
# worker-side payload
# ---------------------------------------------------------------------------

@dataclass
class PointPayload:
    """Everything a worker ships back for one executed point.

    Plain picklable data only: live ``PointResult`` objects hold the
    whole simulator (generators, heaps of bound timers) and cannot
    cross a process boundary.
    """

    index: int
    record: Dict[str, Any]              # the canonical point record
    row: Dict[str, float]               # what a figure plots
    profile: Optional[Dict[str, Any]]   # profiler report, when profiled
    sim_events: int                     # simulator events processed
    sim_wall_seconds: float             # host seconds inside run_point


def _execute_payload(index: int, point: BenchmarkPoint) -> PointPayload:
    """Run one point and flatten the result (runs inside a worker)."""
    t0 = time.perf_counter()
    result = run_point(point)
    sim_wall = time.perf_counter() - t0
    return PointPayload(
        index=index,
        record=point_record(result),
        row=result.row(),
        profile=(result.profiler.report().as_dict()
                 if result.profiler is not None else None),
        sim_events=result.testbed.sim.events_processed,
        sim_wall_seconds=sim_wall,
    )


# ---------------------------------------------------------------------------
# parent-side result shims
# ---------------------------------------------------------------------------

class ReplayedProfiler:
    """Quacks like :class:`~repro.obs.profiler.CpuProfiler` for readers.

    Wraps the report dict a worker shipped back; ``report()`` restores
    the full :class:`ProfileReport` (render, roll-ups) in the parent.
    """

    def __init__(self, report_dict: Dict[str, Any]):
        self._report = report_dict

    def report(self) -> ProfileReport:
        return ProfileReport.from_dict(self._report)


@dataclass
class PortablePointResult:
    """A :class:`PointResult` stand-in rebuilt from a worker payload.

    Exposes the surface sweep/figure/suite consumers use -- ``point``,
    ``row()``, ``record``, the headline measurements, and a replayed
    profiler -- but not the live testbed/server objects, which stayed in
    the worker.  ``point_record()`` recognises the precomputed
    ``record`` attribute and returns it verbatim, which is what makes
    parallel artifacts byte-identical to serial ones.
    """

    point: BenchmarkPoint
    record: Dict[str, Any]
    profiler: Optional[ReplayedProfiler]
    sim_events: int
    sim_wall_seconds: float
    _row: Dict[str, float] = field(default_factory=dict)

    def row(self) -> Dict[str, float]:
        return dict(self._row)

    @property
    def error_percent(self) -> float:
        return self.record["error_percent"]

    @property
    def median_conn_ms(self) -> Optional[float]:
        return self.record["median_conn_ms"]

    @property
    def cpu_utilization(self) -> float:
        return self.record["cpu_utilization"]

    @property
    def reply_rate(self):
        from ..sim.stats import RateSummary

        return RateSummary(**self.record["reply_rate"])


@dataclass
class PointOutcome:
    """One point's fate: a result (serial or portable) or a failure."""

    index: int
    point: BenchmarkPoint
    result: Optional[Any] = None        # PointResult | PortablePointResult
    error: Optional[str] = None
    wall_clock_s: float = 0.0           # host seconds, submit -> done
    sim_events: int = 0
    sim_wall_seconds: float = 0.0       # host seconds inside run_point

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def events_per_second(self) -> float:
        """Simulator throughput for this point (0 when unknown)."""
        if self.sim_wall_seconds <= 0:
            return 0.0
        return self.sim_events / self.sim_wall_seconds


def failed_point_result(outcome: "PointOutcome") -> PortablePointResult:
    """A NaN-measurement placeholder for a point that crashed.

    Sweeps and figures keep their x-axis shape (series show NaN at the
    failed rate); the record carries ``failed``/``error`` so artifacts
    and the regression gate can see exactly what went wrong.
    """
    nan = float("nan")
    point = outcome.point
    record = {
        "server": point.server,
        "rate": point.rate,
        "inactive": point.inactive,
        "duration": point.duration,
        "seed": point.seed,
        "failed": True,
        "error": outcome.error or "unknown error",
        "reply_rate": {"avg": nan, "min": nan, "max": nan,
                       "stddev": nan, "samples": 0},
        "error_percent": nan,
        "median_conn_ms": None,
        "cpu_utilization": nan,
    }
    row = {"rate": point.rate, "avg": nan, "min": nan, "max": nan,
           "stddev": nan, "errors_pct": nan, "median_ms": nan,
           "p99_ms": nan}
    return PortablePointResult(point=point, record=record, profiler=None,
                               sim_events=0, sim_wall_seconds=0.0, _row=row)


def _outcome_from_payload(point: BenchmarkPoint, payload: PointPayload,
                          wall: float) -> PointOutcome:
    result = PortablePointResult(
        point=point,
        record=payload.record,
        profiler=(ReplayedProfiler(payload.profile)
                  if payload.profile is not None else None),
        sim_events=payload.sim_events,
        sim_wall_seconds=payload.sim_wall_seconds,
        _row=payload.row,
    )
    return PointOutcome(
        index=payload.index, point=point, result=result, wall_clock_s=wall,
        sim_events=payload.sim_events,
        sim_wall_seconds=payload.sim_wall_seconds)


# ---------------------------------------------------------------------------
# in-process execution (jobs=1 and the fallback path)
# ---------------------------------------------------------------------------

def _run_inprocess(index: int, point: BenchmarkPoint) -> PointOutcome:
    """Execute one point in this process; a raise becomes a failure."""
    t0 = time.perf_counter()
    try:
        result = run_point(point)
    except Exception as err:  # noqa: BLE001 -- crash isolation
        return PointOutcome(
            index=index, point=point, error=f"{type(err).__name__}: {err}",
            wall_clock_s=time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    return PointOutcome(
        index=index, point=point, result=result, wall_clock_s=wall,
        sim_events=result.testbed.sim.events_processed,
        sim_wall_seconds=wall)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def run_points(points: Sequence[BenchmarkPoint], jobs: int = 1,
               on_result: Optional[Callable[[PointOutcome], None]] = None,
               ) -> List[PointOutcome]:
    """Execute every point; return outcomes in input order.

    ``jobs <= 1`` runs serially in-process (real ``PointResult``
    objects, no pickling).  ``jobs > 1`` fans points across a process
    pool and returns :class:`PortablePointResult` stand-ins.  Either
    way a raising point is reported as a failed outcome instead of
    propagating, and ``on_result`` fires in the parent as each outcome
    settles.
    """
    points = list(points)
    if jobs <= 1 or len(points) <= 1:
        outcomes = []
        for index, point in enumerate(points):
            outcome = _run_inprocess(index, point)
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)
        return outcomes
    return _run_pooled(points, jobs, on_result)


def _run_pooled(points: List[BenchmarkPoint], jobs: int,
                on_result: Optional[Callable[[PointOutcome], None]]
                ) -> List[PointOutcome]:
    outcomes: List[Optional[PointOutcome]] = [None] * len(points)
    remaining = set(range(len(points)))

    def settle(outcome: PointOutcome) -> None:
        outcomes[outcome.index] = outcome
        remaining.discard(outcome.index)
        if on_result is not None:
            on_result(outcome)

    started = {i: time.perf_counter() for i in range(len(points))}
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except (OSError, ValueError):
        # No fork/spawn available (restricted sandbox): degrade to the
        # serial path rather than failing the sweep.
        pool = None
    if pool is not None:
        try:
            pending: Dict[Future, int] = {}
            for index in range(len(points)):
                try:
                    fut = pool.submit(_execute_payload, index, points[index])
                except Exception:  # pool broken or point unpicklable
                    break
                pending[fut] = index
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    index = pending.pop(fut)
                    try:
                        payload = fut.result()
                    except BrokenProcessPool:
                        # the pool is gone; re-run survivors in-process
                        continue
                    except Exception as err:  # noqa: BLE001
                        settle(PointOutcome(
                            index=index, point=points[index],
                            error=_describe_error(err),
                            wall_clock_s=(time.perf_counter()
                                          - started[index])))
                        continue
                    settle(_outcome_from_payload(
                        points[index], payload,
                        time.perf_counter() - started[index]))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    # anything not settled (pool never started, broke mid-flight, or a
    # point would not pickle) falls back to in-process execution
    for index in sorted(remaining):
        settle(_run_inprocess(index, points[index]))
    return [o for o in outcomes if o is not None]


def _describe_error(err: BaseException) -> str:
    """One-line error description (workers lose their tracebacks)."""
    text = f"{type(err).__name__}: {err}"
    tb = getattr(err, "__cause__", None)
    if tb is None and err.__traceback__ is not None:
        last = traceback.extract_tb(err.__traceback__)
        if last:
            frame = last[-1]
            text += f" (at {frame.filename}:{frame.lineno})"
    return text
