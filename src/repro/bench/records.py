"""Serializable experiment records.

Reproduction runs are only useful if they can be archived and diffed, so
every result object can be flattened to plain JSON-compatible dicts:
point → sweep → figure.  `examples/paper_figures.py --json` writes these;
`load_figure_record` reads them back for comparison scripts.
"""

from __future__ import annotations

import copy
import json
from typing import TYPE_CHECKING, Any, Dict

from .harness import PointResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports; a
    # runtime import would cycle through figures -> sweeps -> parallel
    from .figures import FigureResult
    from .sweeps import SweepResult

#: Version history:
#:
#: 1 -- original shape: point config (server/rate/inactive/duration/
#:      seed/timeout/server_opts) plus measurements.
#: 2 -- adds the config fields that make a point re-runnable (``drain``,
#:      ``num_conns``, ``client_fd_limit``, ``document_bytes``,
#:      ``document_sizes``) and two measurements (``inactive_reconnects``
#:      and streaming ``latency_percentiles`` / server-side
#:      ``server_latency_percentiles``).  Loading a v1 record simply
#:      leaves the new keys absent -- readers must treat them as
#:      "unknown", not as the defaults.
#: 3 -- adds the SMP point keys ``cpus``, ``workers``, ``dispatch``, and
#:      ``bandwidth_bps``, present only when non-default (cpus/workers
#:      > 1, dispatch != "hash", a link-speed override), so uniprocessor
#:      records stay byte-identical to v2.
#: 4 -- adds the observability keys ``timeline`` (the sampling interval)
#:      and ``timeline_data`` (the :mod:`repro.obs.timeline` samples),
#:      present only when the point ran with ``timeline > 0``, so every
#:      pre-existing record and fingerprint is unchanged.
#: 5 -- adds ``pathologies`` (the :mod:`repro.obs.causal` backend-
#:      pathology block: wakeup-latency histograms, spurious wakeups,
#:      rtsig overflow/recovery counts, stale events, lock wait),
#:      present only when the point ran with ``trace=True``; untraced
#:      records -- and therefore every existing fingerprint -- are
#:      byte-identical to v4.
#: 6 -- adds the runtime axis: ``runtime`` ("live") and the ``live``
#:      calibration block (listen port, measured wall time per real
#:      syscall, the cost model's predicted CPU per category, backend
#:      wait stats), present only on points run with ``runtime="live"``
#:      (:mod:`repro.bench.live`); simulated records -- and therefore
#:      every existing fingerprint -- are byte-identical to v5.
#: 7 -- the two causal-ledger latencies in ``pathologies.causal``
#:      (``wakeup_latency``, ``path_latency``) take the shape of
#:      ``latency_percentiles``: count/min/mean/max plus p50 through
#:      p99.9, in milliseconds, or None when nothing was observed (v5-6:
#:      count, ``avg_us``, ``max_us`` and log2 microsecond buckets).
#:      Untraced records are byte-identical to v6.
RECORD_VERSION = 7

#: Per-point artifact keys that measure the *host*, not the simulation:
#: they differ run-to-run and between serial and parallel execution, so
#: the determinism contract (`docs/performance.md`) and ``repro diff``
#: both exclude them.
WALL_CLOCK_FIELDS = ("wall_clock_s", "sim_wall_seconds",
                     "events_per_second")


def measurement_keys(result, **extra: Any) -> Dict[str, Any]:
    """The measurement keys simulated and live point records share.

    ``result`` is a :class:`PointResult` or a live point result; the
    keys run from ``reply_rate`` to ``server_stats``, and ``extra`` (a
    record kind's own measurements) goes just before ``server_stats``.
    """
    server_stats = result.server_stats
    request_latency = getattr(result.server, "request_latency", None)
    return {
        "reply_rate": {
            "avg": result.reply_rate.avg,
            "min": result.reply_rate.min,
            "max": result.reply_rate.max,
            "stddev": result.reply_rate.stddev,
            "samples": result.reply_rate.samples,
        },
        "errors": result.httperf.errors.as_dict(),
        "error_percent": result.error_percent,
        "median_conn_ms": result.median_conn_ms,
        "latency_ms": result.httperf.latency_summary_ms(),
        "latency_percentiles": result.httperf.latency_percentiles_ms(),
        "server_latency_percentiles": (
            request_latency.summary() if request_latency is not None
            else None),
        "attempts": result.httperf.attempts,
        "replies_ok": result.httperf.replies_ok,
        "cpu_utilization": result.cpu_utilization,
        "inactive_reconnects": result.inactive_reconnects,
        **extra,
        "server_stats": {
            "accepts": server_stats.accepts,
            "responses": server_stats.responses,
            "io_errors": server_stats.io_errors,
            "idle_closes": server_stats.idle_closes,
            "stale_events": server_stats.stale_events,
            "loops": server_stats.loops,
        },
    }


def point_record(result: PointResult) -> Dict[str, Any]:
    """Flatten one benchmark point to JSON-compatible data.

    Results that crossed a process boundary
    (:class:`~repro.bench.parallel.PortablePointResult`) already carry
    the record their worker computed; it is returned as a copy,
    verbatim, so the parallel path is byte-identical to the serial one
    by construction.
    """
    precomputed = getattr(result, "record", None)
    if precomputed is not None:
        return copy.deepcopy(precomputed)
    point = result.point
    record = {
        "server": point.server,
        "rate": point.rate,
        "inactive": point.inactive,
        "duration": point.duration,
        "num_conns": point.num_conns,
        "seed": point.seed,
        "timeout": point.timeout,
        "drain": point.drain,
        "client_fd_limit": point.client_fd_limit,
        "document_bytes": point.document_bytes,
        "document_sizes": (list(point.document_sizes)
                           if point.document_sizes is not None else None),
        "server_opts": {k: repr(v) if not isinstance(
            v, (int, float, str, bool, type(None))) else v
            for k, v in point.server_opts.items()},
        **measurement_keys(result,
                           time_wait_server=result.time_wait_server),
    }
    # only present when the point was pinned to an event backend: legacy
    # records (and their fingerprints) stay byte-identical.
    if point.backend is not None:
        record["backend"] = point.backend
    # SMP keys follow the same only-when-non-default rule
    if point.cpus != 1:
        record["cpus"] = point.cpus
    if point.workers != 1:
        record["workers"] = point.workers
    if point.dispatch != "hash":
        record["dispatch"] = point.dispatch
    if point.bandwidth_bps is not None:
        record["bandwidth_bps"] = point.bandwidth_bps
    if point.timeline > 0:
        record["timeline"] = point.timeline
        timeline = getattr(result, "timeline", None)
        if timeline is not None:
            record["timeline_data"] = timeline.as_dict()
    # present only when tracing was on; the measurement keys above are
    # identical either way (observation is zero-cost)
    if point.trace:
        pathologies = getattr(result, "pathologies", None)
        if pathologies is not None:
            record["pathologies"] = pathologies
    mode = getattr(result.server, "mode", None)
    if mode is not None:
        record["mode"] = mode
    overflow_at = getattr(result.server, "overflow_at", None)
    if overflow_at is not None:
        record["overflow_at"] = overflow_at
    return record


def sweep_record(sweep: SweepResult) -> Dict[str, Any]:
    """Flatten a rate sweep (one figure line) to JSON-compatible data."""
    return {
        "server": sweep.server,
        "inactive": sweep.inactive,
        "points": [point_record(p) for p in sweep.points],
    }


def figure_record(figure: FigureResult) -> Dict[str, Any]:
    """Flatten a whole regenerated figure to JSON-compatible data."""
    return {
        "record_version": RECORD_VERSION,
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_rates": list(figure.x_rates),
        "series": {name: list(vals) for name, vals in figure.series.items()},
        "sweeps": {label: sweep_record(s)
                   for label, s in figure.sweeps.items()},
    }


def dump_figure_record(figure: FigureResult, path: str) -> None:
    """Write a figure record as pretty-printed JSON."""
    with open(path, "w") as fh:
        json.dump(figure_record(figure), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_figure_record(path: str) -> Dict[str, Any]:
    """Read a record written by dump_figure_record (version-checked).

    Any version up to :data:`RECORD_VERSION` loads; keys introduced by
    later versions (see the version history above ``RECORD_VERSION``)
    are simply absent from older records, so readers should ``.get()``
    them.  Records from the future (or with a non-integer version) are
    rejected rather than misread.
    """
    with open(path) as fh:
        record = json.load(fh)
    version = record.get("record_version")
    if not isinstance(version, int) or not 1 <= version <= RECORD_VERSION:
        raise ValueError(f"unsupported record version {version!r} "
                         f"(this build reads 1..{RECORD_VERSION})")
    return record

