"""Observability layer: span tracing, metrics, and the simulated-CPU profiler.

The paper's argument is entirely about *where CPU time goes* -- copies,
driver ``poll`` callbacks, wait-queue churn, per-event syscall overhead --
so the reproduction carries a first-class observability stack that any
benchmark or test can turn on to see inside the simulator:

* :mod:`repro.obs.spans` -- nested begin/end spans and point events in a
  bounded ring buffer that counts (rather than hides) drops.
* :mod:`repro.obs.metrics` -- a registry of named counters, gauges, and
  log-bucket histograms (:class:`~repro.obs.latency.LatencyHistogram`).
  The kernel's and network stack's tallies all live in one per-host
  registry.
* :mod:`repro.obs.profiler` -- attributes every charged simulated-CPU
  microsecond to a (subsystem, operation) pair, giving a scalene-style
  per-layer breakdown (copyin/copyout vs driver callbacks vs wait-queue
  vs RT-signal queueing vs userspace).
* :mod:`repro.obs.latency` -- a streaming log-bucket (HDR-style)
  quantile histogram; every benchmark point reports p50/p90/p99/p99.9
  connection and request-service latency through it.
* :mod:`repro.obs.flame` -- collapses the span ring and the profiler
  table into folded-stack lines (flamegraph.pl / speedscope input) and
  renders a terminal-only ASCII flame view.
* :mod:`repro.obs.timeline` -- a periodic sampler that snapshots the
  server's metrics registry and per-CPU busy time at fixed sim-time
  intervals (``BenchmarkPoint(timeline=0.25)`` turns it on).
* :mod:`repro.obs.report` -- renders one ``CAPACITY_<name>.json``
  artifact (:mod:`repro.bench.capacity`) into a single self-contained
  HTML report: heatmap, latency curves, timelines, folded stacks, all
  inline, no external assets.
* :mod:`repro.obs.causal` -- the event-causality ledger: stamps every
  readiness notification's path (packet -> enqueue -> ``wait()`` return
  -> dispatch -> reply), keeps wakeup-latency histograms and per-backend
  pathology counters, and exports Chrome trace-event JSON with the
  span ring alongside (``repro point --trace``).

Everything is off by default and costs one attribute check per call site
when disabled, so benchmark numbers are unaffected.  Each exported name
is imported from its submodule on first access (PEP 562), so the kernel's
counters and tracer hooks do not pull in the report and flame renderers
or the timeline sampler.
"""

from importlib import import_module

#: exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "NULL_LEDGER", "CausalLedger", "chrome_trace_events",
        "collect_pathologies", "export_chrome_trace"),
        "causal"),
    **dict.fromkeys((
        "ascii_flame", "collapse_profile", "collapse_spans", "folded_stacks",
        "write_folded"), "flame"),
    "LatencyHistogram": "latency",
    **dict.fromkeys(("Gauge", "MetricsRegistry"), "metrics"),
    **dict.fromkeys(("CpuProfiler", "ProfileReport", "split_category"),
                    "profiler"),
    **dict.fromkeys(("render_report", "write_report"), "report"),
    **dict.fromkeys((
        "NULL_TRACER", "Span", "SpanTracer", "TraceRecord"),
        "spans"),
    **dict.fromkeys(("TimelineSampler", "utilization_series"), "timeline"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import *name* from its submodule on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
