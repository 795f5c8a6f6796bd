"""The capacity matrix: peak sustainable rate per (backend x load x SMP) cell.

The paper's bottom line is a *capacity* claim -- which readiness
mechanism sustains the highest reply rate once thousands of inactive
connections pile onto the interest set.  This module is the project's
one capacity searcher: a **matrix driver** that binary-searches the
saturation knee of every requested cell (one cell answers the question
for one operating point) and emits one schema-versioned
``CAPACITY_<name>.json`` artifact -- the input to the self-contained
HTML report (:mod:`repro.obs.report`).

A *cell* is a fully specified server shape: event backend, inactive
load, and SMP configuration (``cpus x workers``).  Each cell runs the
same search:

1. **bracket** -- probe ``low`` and ``high`` once each.  An unsustained
   ``low`` ends the cell at capacity 0; a sustained ``high`` ends it at
   ``high`` (the search range was too small -- the artifact says so).
2. **bisect** -- repeatedly probe the midpoint until the bracket closes
   to ``tolerance`` replies/s.  The knee is the last sustained rate.
3. **verify** -- re-run one point at the knee with the CPU profiler and
   a :mod:`repro.obs.timeline` sampler attached.  The verification run
   supplies everything the report charts for the cell: latency
   percentiles, top profile rows, per-interval utilization, and
   speedscope-ready folded stacks.

Parallelism comes from :func:`repro.bench.parallel.run_points`: each
scheduling round gathers every unfinished cell's next probe (plus, with
``speculate`` and ``jobs > 1``, the two possible *next* midpoints of
each pending bisection) and fans the whole wave across the worker pool.
Probe results are cached per (cell, rate), and the bisection consumes
them in strict search order, so the probe history -- and therefore the
whole artifact minus wall-clock fields -- is byte-identical between
``jobs=1`` and ``jobs=N`` runs of the same configuration.  Speculative
probes on the branch the search did not take are counted
(``speculative_wasted``) but never enter the history.

Artifact discipline follows ``BENCH_*`` (:mod:`repro.bench.suites`):
a version gate, a config fingerprint hashed over every cell's
re-runnable configuration, and host-time fields kept at top level so
cells stay deterministic.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .harness import BACKEND_TO_KIND, BenchmarkPoint
from .parallel import PointOutcome, run_points
from .records import RECORD_VERSION, point_record
from .suites import point_config

#: bump when the capacity artifact's shape changes; readers accept <= this
#:
#: 2 -- knee verification runs with the causal ledger on, so each cell's
#:      ``knee`` block gains ``pathologies`` (see repro.obs.causal);
#:      v1 artifacts simply lack the key.
#: 3 -- the knee's ``pathologies.causal`` latencies are in milliseconds,
#:      shaped like ``latency_percentiles`` (record version 7); the
#:      report reads their ``mean`` and ``max``.
CAPACITY_ARTIFACT_VERSION = 3

#: profile rows archived per cell (the report shows these)
PROFILE_TOP_ROWS = 12


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """One matrix cell: a fully specified server shape under one load."""

    backend: str
    inactive: int
    cpus: int = 1
    workers: int = 1
    dispatch: str = "hash"

    def __post_init__(self):
        if self.backend not in BACKEND_TO_KIND:
            raise ValueError(f"unknown backend {self.backend!r}; choose "
                             f"from {sorted(BACKEND_TO_KIND)}")
        if self.inactive < 0:
            raise ValueError(f"inactive must be >= 0, got {self.inactive}")
        if self.cpus < 1 or self.workers < 1:
            raise ValueError("cpus and workers must be >= 1")

    @property
    def server(self) -> str:
        return BACKEND_TO_KIND[self.backend]

    @property
    def label(self) -> str:
        """Stable key: ``epoll@251`` or ``epoll@251/4x4`` (SMP)."""
        label = f"{self.backend}@{self.inactive}"
        if self.cpus != 1 or self.workers != 1:
            label += f"/{self.cpus}x{self.workers}"
        return label


@dataclass(frozen=True)
class CapacitySearch:
    """Search knobs shared by every cell of one matrix run."""

    low: float = 100.0
    high: float = 2000.0
    tolerance: float = 150.0
    duration: float = 2.0
    seed: int = 0
    sustain_fraction: float = 0.95
    max_error_percent: float = 2.0
    #: timeline sampling interval of the knee verification run (sim
    #: seconds); 0 disables the timeline
    timeline: float = 0.25
    #: with jobs > 1, also probe both possible next midpoints of each
    #: pending bisection so idle workers shorten the critical path
    speculate: bool = True

    def __post_init__(self):
        if not 0 < self.low < self.high:
            raise ValueError("need 0 < low < high")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.duration < 2.0:
            # the client's reply-rate window is 1 simulated second and
            # the first window catches the connection ramp, so a probe
            # needs at least two windows to read a steady state; any
            # shorter and every rate looks unsustained
            raise ValueError("duration must be >= 2.0 (one warmup plus "
                             "one steady reply-rate window)")


def matrix_cells(backends: Sequence[str], inactive: Sequence[int],
                 smp: Sequence[Tuple[int, int]] = ((1, 1),),
                 dispatch: str = "hash") -> List[CellSpec]:
    """The cross product (backend x inactive x smp) as cell specs."""
    return [CellSpec(backend=b, inactive=n, cpus=c, workers=w,
                     dispatch=dispatch)
            for b in backends for n in inactive for c, w in smp]


def parse_smp(text: str) -> List[Tuple[int, int]]:
    """Parse ``"1x1,4x4"`` into ``[(1, 1), (4, 4)]`` (CLI helper)."""
    shapes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        cpus, sep, workers = part.partition("x")
        if not sep:
            raise ValueError(f"bad SMP shape {part!r}; expected CPUSxWORKERS")
        shapes.append((int(cpus), int(workers)))
    if not shapes:
        raise ValueError("no SMP shapes given")
    return shapes


# ---------------------------------------------------------------------------
# the per-cell search state machine
# ---------------------------------------------------------------------------

def _steady_rate(summary) -> float:
    """Steady-state replies/s: the windowed average minus the warmup.

    The client's first 1-second reply window catches the connection
    ramp and under-reports, which at short probe durations drags the
    whole average below ``sustain_fraction`` even on an idle server.
    With two or more windows, drop the slowest one (the ramp) and
    average the rest; a single-window probe has no steady state to
    read, so its average stands.
    """
    if summary.samples >= 2:
        return ((summary.avg * summary.samples - summary.min)
                / (summary.samples - 1))
    return summary.avg


class _CellSearch:
    """Bracket-then-bisect over one cell, fed from a shared probe cache.

    ``needed()`` lists the rates the search is blocked on *right now*;
    ``speculative()`` lists the two quarter-point rates the next bisect
    round could need; ``record()`` files an executed probe; ``advance()``
    consumes cached probes in strict search order until blocked again.
    """

    def __init__(self, spec: CellSpec, search: CapacitySearch):
        self.spec = spec
        self.search = search
        self.cache: Dict[float, Dict[str, Any]] = {}
        self.probes: List[Dict[str, Any]] = []   # consumed, search order
        self.executed = 0
        self.speculative_wasted = 0
        self.phase = "bracket"                    # bracket | bisect | done
        self.lo: Optional[float] = None
        self.hi: Optional[float] = None
        self.capacity: Optional[float] = None
        self.knee: Optional[Dict[str, Any]] = None

    # -- building probes ----------------------------------------------
    def point(self, rate: float, profile: bool = False,
              timeline: float = 0.0, trace: bool = False) -> BenchmarkPoint:
        spec, search = self.spec, self.search
        return BenchmarkPoint(
            server=spec.server, backend=spec.backend, rate=rate,
            inactive=spec.inactive, duration=search.duration,
            seed=search.seed, cpus=spec.cpus, workers=spec.workers,
            dispatch=spec.dispatch, profile=profile, timeline=timeline,
            trace=trace)

    # -- scheduling ----------------------------------------------------
    def needed(self) -> List[float]:
        if self.phase == "bracket":
            rates = [self.search.low, self.search.high]
        elif self.phase == "bisect":
            rates = [self._mid()]
        else:
            return []
        return [r for r in rates if r not in self.cache]

    def speculative(self) -> List[float]:
        """Both possible next midpoints of the pending bisect round."""
        if self.phase != "bisect":
            return []
        lo, hi, mid = self.lo, self.hi, self._mid()
        if (hi - lo) / 2.0 <= self.search.tolerance:
            return []  # this round decides; no next midpoint exists
        return [r for r in ((lo + mid) / 2.0, (mid + hi) / 2.0)
                if r not in self.cache]

    def _mid(self) -> float:
        return (self.lo + self.hi) / 2.0

    # -- results -------------------------------------------------------
    def record(self, rate: float, outcome: PointOutcome,
               speculative: bool) -> None:
        if rate in self.cache:  # defensive; the driver never double-runs
            return
        self.executed += 1
        if outcome.ok:
            result = outcome.result
            probe = {
                "rate": rate,
                "reply_avg": result.reply_rate.avg,
                "reply_steady": _steady_rate(result.reply_rate),
                "error_percent": result.error_percent,
                "cpu_utilization": result.cpu_utilization,
                "sustained": self._sustains(rate, result),
            }
        else:
            probe = {
                "rate": rate,
                "failed": True,
                "error": outcome.error or "unknown error",
                "sustained": False,
            }
        if speculative:
            probe["speculative"] = True
        self.cache[rate] = probe

    def _sustains(self, rate: float, result) -> bool:
        search = self.search
        return (_steady_rate(result.reply_rate)
                >= search.sustain_fraction * rate
                and result.error_percent < search.max_error_percent)

    # -- the state machine --------------------------------------------
    def advance(self) -> None:
        while True:
            if self.phase == "bracket":
                low, high = self.search.low, self.search.high
                if low not in self.cache or high not in self.cache:
                    return
                low_ok = self._consume(low)
                high_ok = self._consume(high)
                if not low_ok:
                    self._finish(0.0)
                elif high_ok:
                    self._finish(high)
                else:
                    self.lo, self.hi = low, high
                    self.phase = "bisect"
            elif self.phase == "bisect":
                if self.hi - self.lo <= self.search.tolerance:
                    self._finish(self.lo)
                    continue
                mid = self._mid()
                if mid not in self.cache:
                    return
                if self._consume(mid):
                    self.lo = mid
                else:
                    self.hi = mid
            else:
                return

    def _consume(self, rate: float) -> bool:
        probe = dict(self.cache[rate])
        # a consumed probe is a search probe no matter how it was
        # scheduled: dropping the speculative tag here keeps the probe
        # history byte-identical between jobs=1 and jobs=N runs
        probe.pop("speculative", None)
        self.probes.append(probe)
        return probe["sustained"]

    def _finish(self, capacity: float) -> None:
        self.phase = "done"
        self.capacity = capacity
        consumed = {p["rate"] for p in self.probes}
        self.speculative_wasted = sum(
            1 for r in self.cache if r not in consumed)

    # -- artifact ------------------------------------------------------
    def cell_record(self) -> Dict[str, Any]:
        spec = self.spec
        record = {
            "label": spec.label,
            "backend": spec.backend,
            "server": spec.server,
            "inactive": spec.inactive,
            "cpus": spec.cpus,
            "workers": spec.workers,
            "dispatch": spec.dispatch,
            "capacity": self.capacity,
            "sustainable": bool(self.capacity),
            "range_exhausted": self.capacity == self.search.high,
            "probes": self.probes,
            "probes_executed": self.executed,
            "speculative_wasted": self.speculative_wasted,
            "knee": self.knee,
        }
        return record


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------

def search_config(search: CapacitySearch) -> Dict[str, Any]:
    """The re-runnable search configuration, canonically typed."""
    return {
        "low": search.low,
        "high": search.high,
        "tolerance": search.tolerance,
        "duration": search.duration,
        "seed": search.seed,
        "sustain_fraction": search.sustain_fraction,
        "max_error_percent": search.max_error_percent,
        "timeline": search.timeline,
    }


def matrix_fingerprint(cells: Sequence[CellSpec],
                       search: CapacitySearch) -> str:
    """Hash of every cell's re-runnable config plus the search knobs.

    Reuses :func:`repro.bench.suites.point_config` for the per-cell
    template point, so anything that would change a probe's measurements
    changes the fingerprint (``speculate`` is deliberately excluded --
    it only reorders wall-clock work, never measurements).
    """
    payload = json.dumps({
        "search": search_config(search),
        "cells": [point_config(_CellSearch(c, search).point(search.low))
                  for c in cells],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def run_capacity_matrix(cells: Sequence[CellSpec],
                        search: Optional[CapacitySearch] = None,
                        jobs: int = 1, name: str = "matrix",
                        on_event: Optional[Callable[[str], None]] = None,
                        ) -> Dict[str, Any]:
    """Search every cell's knee and return the capacity artifact dict.

    ``on_event`` (if given) receives one human-readable progress line
    per scheduling round and per completed cell; it runs only in the
    parent process (the same contract as ``run_suite``'s ``on_point``).
    """
    if not cells:
        raise ValueError("capacity matrix needs at least one cell")
    if len({c.label for c in cells}) != len(cells):
        raise ValueError("duplicate matrix cells")
    search = search if search is not None else CapacitySearch()
    t0 = time.perf_counter()
    searches = [_CellSearch(spec, search) for spec in cells]

    def emit(line: str) -> None:
        if on_event is not None:
            on_event(line)

    rounds = 0
    while True:
        batch: List[Tuple[_CellSearch, float, bool]] = []
        for cell in searches:
            for rate in cell.needed():
                batch.append((cell, rate, False))
        if not batch:
            break
        if jobs > 1 and search.speculate:
            for cell in searches:
                for rate in cell.speculative():
                    batch.append((cell, rate, True))
        rounds += 1
        emit(f"round {rounds}: {len(batch)} probe(s) across "
             f"{sum(1 for c in searches if c.phase != 'done')} open cell(s)")
        outcomes = run_points([cell.point(rate) for cell, rate, _ in batch],
                              jobs=jobs)
        for (cell, rate, spec_flag), outcome in zip(batch, outcomes):
            cell.record(rate, outcome, speculative=spec_flag)
        for cell in searches:
            before = cell.phase
            cell.advance()
            if cell.phase == "done" and before != "done":
                emit(f"  {cell.spec.label}: knee ~{cell.capacity:.0f} "
                     f"replies/s after {len(cell.probes)} probe(s)")

    _verify_knees(searches, search, jobs, emit)

    artifact = {
        "capacity_artifact_version": CAPACITY_ARTIFACT_VERSION,
        "record_version": RECORD_VERSION,
        "name": name,
        "fingerprint": matrix_fingerprint(cells, search),
        "search": search_config(search),
        "created_unix": round(time.time(), 3),
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "jobs": max(1, jobs),
        "rounds": rounds,
        "backends": sorted({c.backend for c in cells}),
        "inactive": sorted({c.inactive for c in cells}),
        "cells": [cell.cell_record() for cell in searches],
    }
    return artifact


def _verify_knees(searches: List[_CellSearch], search: CapacitySearch,
                  jobs: int, emit: Callable[[str], None]) -> None:
    """One profiled + timeline-sampled run at each cell's knee."""
    todo = [c for c in searches if c.capacity]
    if not todo:
        return
    emit(f"verify: {len(todo)} knee run(s) with profiler + timeline")
    # trace=True attaches the causal ledger: the knee block gains the
    # pathology panel's data.  Observation is zero-cost, so the knee's
    # measurements match an untraced run exactly.
    points = [cell.point(cell.capacity, profile=True,
                         timeline=search.timeline, trace=True)
              for cell in todo]
    outcomes = run_points(points, jobs=jobs)
    for cell, outcome in zip(todo, outcomes):
        if not outcome.ok:
            cell.knee = {"failed": True,
                         "error": outcome.error or "unknown error"}
            continue
        cell.knee = _knee_record(outcome)


def _knee_record(outcome: PointOutcome) -> Dict[str, Any]:
    """Flatten one verification run into the cell's ``knee`` block."""
    result = outcome.result
    record = point_record(result)
    profile = None
    profiler = getattr(result, "profiler", None)
    if profiler is not None:
        profile = profiler.report().as_dict()
    knee: Dict[str, Any] = {
        "rate": record["rate"],
        "reply_rate": record["reply_rate"],
        "error_percent": record["error_percent"],
        "cpu_utilization": record["cpu_utilization"],
        "median_conn_ms": record["median_conn_ms"],
        "latency_percentiles": record.get("latency_percentiles"),
        "server_latency_percentiles": record.get(
            "server_latency_percentiles"),
        "timeline": record.get("timeline_data"),
        "pathologies": record.get("pathologies"),
    }
    if profile is not None:
        rows = profile.get("rows", [])[:PROFILE_TOP_ROWS]
        knee["profile_top"] = rows
        knee["profile_total_cpu_seconds"] = profile.get("total_cpu_seconds")
        knee["folded_stacks"] = folded_from_profile(profile)
        if "cpu_seconds" in profile:
            knee["cpu_seconds"] = profile["cpu_seconds"]
    return knee


def folded_from_profile(profile: Dict[str, Any]) -> List[str]:
    """Speedscope-ready folded-stack lines from a profile report dict.

    Same convention as :func:`repro.obs.flame.collapse_profile` -- every
    attribution row folds under a synthetic ``cpu`` root with a weight
    in whole microseconds -- but computed from the plain-data report, so
    it works for runs whose profiler lives in a worker process.
    """
    folded = {}
    for row in profile.get("rows", []):
        usec = round(float(row["cpu_seconds"]) * 1e6)
        if usec > 0:
            key = f"cpu;{row['subsystem']};{row['operation']}"
            folded[key] = folded.get(key, 0) + usec
    return [f"{path} {weight}" for path, weight in sorted(folded.items())]


# ---------------------------------------------------------------------------
# artifact I/O (BENCH discipline: pretty-printed, key-sorted, gated)
# ---------------------------------------------------------------------------

def default_artifact_path(name: str) -> str:
    return f"CAPACITY_{name}.json"


def dump_capacity_artifact(artifact: Dict[str, Any], path: str) -> None:
    """Write a CAPACITY artifact as pretty-printed, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_capacity_artifact(path: str) -> Dict[str, Any]:
    """Read a CAPACITY artifact (version-checked)."""
    with open(path, encoding="utf-8") as fh:
        artifact = json.load(fh)
    version = artifact.get("capacity_artifact_version")
    if (not isinstance(version, int)
            or not 1 <= version <= CAPACITY_ARTIFACT_VERSION):
        raise ValueError(
            f"unsupported capacity artifact version {version!r} "
            f"(this build reads 1..{CAPACITY_ARTIFACT_VERSION})")
    return artifact
