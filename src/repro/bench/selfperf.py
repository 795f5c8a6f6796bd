"""Harness self-measurement: how fast does the simulator itself run?

The reproduction's claims are about *simulated* CPU seconds, but the
harness's usefulness is bounded by *host* seconds -- a suite that takes
minutes to run does not get run.  This module measures the simulator's
own speed on two fixed, seeded workloads and reports the numbers that
``BENCH_<suite>.json`` artifacts embed as their ``selfperf`` block, so
the perf trajectory tracks harness speed alongside the simulated
measurements:

* ``engine_churn`` -- pure :class:`~repro.sim.engine.Simulator` work:
  schedule a large batch of timers, cancel a sizeable fraction (the
  idle-sweep pattern that used to leak heap entries until pop), run
  the calendar dry.  Exercises the heap, lazy deletion, and the
  compaction path, with no kernel or network on top.  Only the drain
  (``sim.run()``) is timed; building the timer batch is setup, reported
  separately as ``setup_seconds``, so the events/s figure measures
  engine throughput rather than list-comprehension speed.
* ``point`` -- one tiny end-to-end benchmark point (thttpd at a low
  rate), measuring the whole stack: kernel, TCP, server, client.  Its
  ratchet metric is ``sim_seconds_per_second``, simulated seconds per
  host second: the engine may reach the same records in fewer events
  (fusion, inline wakeups), so events per second would fall exactly
  when the point gets faster.  Its events/s is reported as information.

Everything *simulated* about these workloads (event counts, purge
counts) is deterministic; only the host-seconds and derived
events-per-second figures vary by machine.  The wall-clock fields are
named in :data:`repro.bench.records.WALL_CLOCK_FIELDS` and excluded
from determinism checks and the regression gate.

The ratchet gates ``engine_churn`` on events per second (its 8000
events are fixed by its shape) and ``point`` on simulated seconds per
host second; the floor file names each workload's metric.  For the CI
ratchet the module also provides:

* :func:`run_calibration` -- a fixed pure-Python loop timed on the
  current host, yielding a loops-per-second score that tracks
  interpreter speed.  The ratchet floor is stored together with the
  score of the host that set it, and scaled by the ratio of the two
  scores at check time, so a slow CI runner is held to a
  proportionally lower absolute floor instead of flapping.
* :func:`check_floor` -- compare a measured ``selfperf`` block against
  a floor file (``benchmarks/baselines/SELFPERF_floor.json``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..sim.engine import Simulator

#: engine-churn workload shape (fixed: changing it changes the
#: deterministic event counts embedded in artifacts)
CHURN_TIMERS = 20000
CHURN_CANCEL_FRACTION = 0.6
CHURN_SEED = 1234

#: the end-to-end workload: small enough to add well under a second
POINT_SERVER = "thttpd"
POINT_RATE = 100.0
POINT_DURATION = 1.0

#: calibration loop length: long enough to be timeable (~10ms on a
#: current interpreter), short enough to be negligible next to the
#: workloads themselves
CALIBRATION_LOOPS = 300000

#: default safety margin applied to the normalized floor -- best-of-N
#: plus calibration absorb most host variance, the margin absorbs the
#: rest (CI runners share cores with noisy neighbours)
FLOOR_MARGIN = 0.5


@dataclass
class SelfPerfResult:
    """One workload's throughput measurement."""

    workload: str
    events_processed: int        # deterministic
    sim_wall_seconds: float      # host seconds (machine-dependent)
    events_per_second: float     # derived, machine-dependent
    detail: Dict[str, Any]       # workload-specific extras

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "events_processed": self.events_processed,
            "sim_wall_seconds": round(self.sim_wall_seconds, 4),
            "events_per_second": round(self.events_per_second, 1),
            **self.detail,
        }


def _throughput(events: int, wall: float) -> float:
    return events / wall if wall > 0 else 0.0


def run_engine_churn(n_timers: int = CHURN_TIMERS,
                     cancel_fraction: float = CHURN_CANCEL_FRACTION,
                     seed: int = CHURN_SEED) -> SelfPerfResult:
    """Timer churn: schedule, cancel a fraction, drain the calendar.

    The timed region is the drain alone.  Scheduling 20k timers and
    cancelling 12k of them is O(n) Python setup that used to dominate
    the measurement (three quarters of the old figure was the setup
    list comprehension); it is still reported, as ``setup_seconds``,
    but no longer pollutes the events/s ratchet metric.
    """
    rng = random.Random(seed)
    sim = Simulator()
    t_setup = time.perf_counter()
    timers = [sim.schedule(rng.uniform(0.0, 100.0), _noop)
              for _ in range(n_timers)]
    cancel = rng.sample(range(n_timers), int(n_timers * cancel_fraction))
    for i in cancel:
        timers[i].cancel()
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return SelfPerfResult(
        workload="engine_churn",
        events_processed=sim.events_processed,
        sim_wall_seconds=wall,
        events_per_second=_throughput(sim.events_processed, wall),
        detail={
            "timers_scheduled": n_timers,
            "timers_cancelled": len(cancel),
            "heap_compactions": sim.compactions,
            "cancelled_purged": sim.cancelled_purged,
            "setup_seconds": round(t0 - t_setup, 4),
        })


def run_point_workload(server: str = POINT_SERVER, rate: float = POINT_RATE,
                       duration: float = POINT_DURATION) -> SelfPerfResult:
    """One tiny end-to-end point: the full simulation stack's speed."""
    from .harness import BenchmarkPoint, run_point

    t0 = time.perf_counter()
    result = run_point(BenchmarkPoint(server=server, rate=rate, inactive=1,
                                      duration=duration))
    wall = time.perf_counter() - t0
    sim = result.testbed.sim
    return SelfPerfResult(
        workload="point",
        events_processed=sim.events_processed,
        sim_wall_seconds=wall,
        events_per_second=_throughput(sim.events_processed, wall),
        detail={
            "server": server,
            "rate": rate,
            "duration": duration,
            "replies_ok": result.httperf.replies_ok,
            "simulated_seconds": sim.now,
            "sim_seconds_per_second": round(_throughput(sim.now, wall), 3),
        })


def run_calibration(loops: int = CALIBRATION_LOOPS) -> float:
    """Fixed pure-Python work, timed: a host/interpreter speed score.

    Returns loops per second.  The loop body mixes integer arithmetic,
    attribute-free name lookups, and a conditional -- the same
    interpreter machinery the event loop burns its time in -- so the
    score moves roughly in proportion with engine throughput when the
    host or Python version changes.  Deliberately independent of the
    engine itself: an engine regression must NOT move the calibration,
    or it would cancel out of the normalized ratchet.
    """
    acc = 0
    t0 = time.perf_counter()
    for i in range(loops):
        acc += i & 7
        if acc > 4096:
            acc -= 4096
    wall = time.perf_counter() - t0
    return loops / wall if wall > 0 else 0.0


def run_selfperf(include_point: bool = True, repeat: int = 1,
                 calibrate: bool = False) -> Dict[str, Any]:
    """The artifact's ``selfperf`` block: every workload, as plain data.

    ``repeat`` runs each workload N times and keeps the best (fastest)
    run -- host noise is one-sided, so best-of-N converges on the
    machine's true speed.  ``calibrate`` adds a ``calibration``
    entry (see :func:`run_calibration`) for floor normalization.
    """
    repeat = max(1, repeat)

    def best(fn) -> SelfPerfResult:
        winner = fn()
        for _ in range(repeat - 1):
            candidate = fn()
            # every repetition does the same simulated work
            if candidate.sim_wall_seconds < winner.sim_wall_seconds:
                winner = candidate
        if repeat > 1:
            winner.detail["best_of"] = repeat
        return winner

    results = [best(run_engine_churn)]
    if include_point:
        results.append(best(run_point_workload))
    block: Dict[str, Any] = {r.workload: r.as_dict() for r in results}
    if calibrate:
        block["calibration"] = {
            "loops": CALIBRATION_LOOPS,
            "loops_per_second": round(run_calibration(), 1),
        }
    return block


def check_floor(block: Dict[str, Any],
                floor: Dict[str, Any]) -> Tuple[bool, List[str]]:
    """Compare a measured selfperf ``block`` against a ratchet floor.

    ``floor`` is the parsed ``SELFPERF_floor.json``::

        {
          "calibration_loops_per_second": <score of the host that set it>,
          "margin": 0.5,
          "floors": {"engine_churn": {"events_per_second": <floor>},
                     "point": {"sim_seconds_per_second": <floor>}}
        }

    Each floor is scaled by (this host's calibration score / the
    floor-setting host's score) and the safety margin; the check fails
    if any measured metric lands below its scaled floor.  The floor only
    moves up, by hand, in the change that earns the speedup -- CI never
    rewrites it.

    Returns ``(ok, lines)`` where ``lines`` is a human-readable
    verdict per workload.
    """
    base_cal = float(floor["calibration_loops_per_second"])
    margin = float(floor.get("margin", FLOOR_MARGIN))
    cal = block.get("calibration", {}).get("loops_per_second")
    if cal is None:
        cal = run_calibration()
    scale = float(cal) / base_cal if base_cal > 0 else 1.0
    ok = True
    lines = [f"calibration: {float(cal):,.0f} loops/s on this host vs "
             f"{base_cal:,.0f} when the floor was set "
             f"(scale {scale:.2f}, margin {margin:.2f})"]
    for workload, floors in floor["floors"].items():
        for metric, base_floor in floors.items():
            measured = block.get(workload, {}).get(metric)
            if measured is None:
                ok = False
                lines.append(f"{workload}: {metric} MISSING from measured "
                             "block")
                continue
            need = float(base_floor) * scale * margin
            verdict = "ok" if measured >= need else "BELOW FLOOR"
            if measured < need:
                ok = False
            lines.append(
                f"{workload}: {metric} {measured:,.1f} vs scaled floor "
                f"{need:,.1f} (checked-in {float(base_floor):,.1f}) "
                f"-- {verdict}")
    return ok, lines


def _noop() -> None:
    pass
