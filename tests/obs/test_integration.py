"""End-to-end observability: profiling and tracing real benchmark runs."""

import pytest

from repro.bench.harness import BenchmarkPoint, run_point
from repro.core.devpoll import DevPollConfig


def _profiled_point(**kwargs):
    defaults = dict(server="thttpd-devpoll", rate=400.0, inactive=200,
                    duration=2.0, profile=True)
    defaults.update(kwargs)
    return run_point(BenchmarkPoint(**defaults))


def test_profile_attribution_sums_to_total_charged_cpu():
    result = _profiled_point()
    cpu = result.testbed.server_kernel.cpu
    report = result.profiler.report()
    assert report.total == pytest.approx(cpu.busy_time, rel=1e-9)
    assert sum(r.seconds for r in report.rows) == pytest.approx(
        cpu.busy_time, rel=1e-9)
    # the layers the paper talks about all show up
    subsystems = {r.subsystem for r in report.rows}
    assert {"devpoll", "net", "syscall", "http"} <= subsystems


def test_hints_disabled_inflates_driver_callback_share():
    hinted = _profiled_point()
    unhinted = _profiled_point(
        server_opts={"devpoll": DevPollConfig(use_hints=False)})
    with_hints = hinted.profiler.report().share_of(
        "devpoll", "driver_callback")
    without = unhinted.profiler.report().share_of(
        "devpoll", "driver_callback")
    assert without > with_hints * 2


def test_profile_off_leaves_profiler_none():
    result = run_point(BenchmarkPoint(
        server="thttpd", rate=200.0, inactive=10, duration=1.0))
    assert result.profiler is None
    assert result.testbed.server_kernel.cpu.profiler is None


def test_traced_point_captures_spans_and_phases():
    result = run_point(BenchmarkPoint(
        server="thttpd-devpoll", rate=200.0, inactive=10, duration=1.5,
        trace=True))
    tracer = result.testbed.tracer
    span_names = {s.name for s in tracer.spans()}
    assert {"ramp", "measure", "dp_poll", "request"} <= span_names
    requests = [s for s in tracer.spans() if s.name == "request"]
    assert requests
    assert all(s.duration is not None and s.duration >= 0.0
               for s in requests)
    assert any(s.attrs.get("outcome") == "responded" for s in requests)
    dp = [s for s in tracer.spans() if s.name == "dp_poll"]
    assert dp and all("interests" in s.attrs for s in dp)


def test_rtsig_profile_splits_enqueue_and_dequeue():
    result = _profiled_point(server="phhttpd", rate=300.0, inactive=50)
    report = result.profiler.report()
    assert report.share_of("rtsig", "enqueue") > 0
    assert report.share_of("rtsig", "dequeue") > 0
    batch = result.testbed.server_kernel.metrics.get("rtsig.dequeue_batch")
    assert batch is not None and batch.count > 0


def test_kernel_counters_share_the_metrics_registry():
    result = run_point(BenchmarkPoint(
        server="thttpd", rate=100.0, inactive=5, duration=1.0))
    kernel = result.testbed.server_kernel
    # syscall counts and TCP gauges live in one registry
    assert kernel.counters is kernel.metrics.counts
    assert kernel.counters is result.testbed.server_stack.counters
    assert kernel.counters.get("sys.read") > 0
    assert kernel.metrics.get("tcp.open_connections") is not None
    snapshot = kernel.metrics.snapshot()
    assert snapshot["sys.read"] == kernel.counters.get("sys.read")
