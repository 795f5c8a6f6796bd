"""Tests for the parallel point runner and its determinism contract."""

import json

import pytest

from repro.bench.harness import BenchmarkPoint, run_point
from repro.bench.parallel import (
    PortablePointResult,
    failed_point_result,
    run_points,
)
from repro.bench.records import WALL_CLOCK_FIELDS, point_record
from repro.bench.suites import run_suite
from repro.bench.sweeps import run_rate_sweep

#: a fast point: small simulated window, tiny load
FAST = BenchmarkPoint(server="thttpd", rate=120.0, inactive=2, duration=0.8)

#: server_opts that make the server constructor raise (in any process)
BROKEN = BenchmarkPoint(server="thttpd", rate=120.0, inactive=2,
                        duration=0.8,
                        server_opts={"no_such_config_field": True})


def strip_wall_clock(entry):
    return {k: v for k, v in entry.items() if k not in WALL_CLOCK_FIELDS}


# ---------------------------------------------------------------------------
# ordering, shims, and the serial path
# ---------------------------------------------------------------------------

def test_serial_outcomes_in_input_order():
    points = [BenchmarkPoint(server="thttpd", rate=float(r), inactive=1,
                             duration=0.5) for r in (100, 130, 160)]
    outcomes = run_points(points, jobs=1)
    assert [o.index for o in outcomes] == [0, 1, 2]
    assert [o.point.rate for o in outcomes] == [100.0, 130.0, 160.0]
    assert all(o.ok for o in outcomes)
    assert all(o.sim_events > 0 and o.sim_wall_seconds > 0 for o in outcomes)


def test_parallel_matches_serial_records():
    points = [BenchmarkPoint(server="thttpd", rate=float(r), inactive=1,
                             duration=0.5) for r in (100, 130)]
    serial = run_points(points, jobs=1)
    parallel = run_points(points, jobs=2)
    assert [o.index for o in parallel] == [0, 1]
    for s, p in zip(serial, parallel):
        assert isinstance(p.result, PortablePointResult)
        assert point_record(s.result) == point_record(p.result)
        assert s.result.row() == p.result.row()
        assert s.sim_events == p.sim_events  # simulated work is identical


def test_portable_result_surface():
    (outcome,) = run_points([FAST], jobs=1)
    serial = outcome.result
    payload_style = run_points([FAST, FAST], jobs=2)[0].result
    assert payload_style.point == FAST
    assert payload_style.error_percent == serial.error_percent
    assert payload_style.median_conn_ms == serial.median_conn_ms
    assert payload_style.cpu_utilization == serial.cpu_utilization
    assert payload_style.reply_rate.avg == serial.reply_rate.avg


def test_parallel_profile_roundtrips():
    point = BenchmarkPoint(server="thttpd", rate=120.0, inactive=2,
                           duration=0.8, profile=True)
    serial_report = run_point(point).profiler.report().as_dict()
    (outcome, _) = run_points([point, point], jobs=2)
    assert outcome.result.profiler is not None
    assert outcome.result.profiler.report().as_dict() == serial_report


def test_progress_callback_runs_in_parent_only():
    import os

    parent = os.getpid()
    seen = []

    def on_result(outcome):
        seen.append((os.getpid(), outcome.index))

    run_points([FAST, FAST], jobs=2, on_result=on_result)
    assert sorted(i for _pid, i in seen) == [0, 1]
    assert all(pid == parent for pid, _i in seen)


# ---------------------------------------------------------------------------
# crash isolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_point_is_reported(jobs):
    outcomes = run_points([FAST, BROKEN], jobs=jobs)
    good, bad = outcomes
    assert good.ok
    assert not bad.ok
    assert "no_such_config_field" in bad.error or "TypeError" in bad.error


def test_raising_point_runs_once(monkeypatch):
    """A point is a seeded simulation with no I/O: a retry would raise
    the same way, so the runner reports the first failure."""
    import repro.bench.parallel as parallel

    calls = []

    def raising(point):
        calls.append(point)
        raise RuntimeError("boom")

    monkeypatch.setattr(parallel, "run_point", raising)
    (outcome,) = run_points([FAST], jobs=1)
    assert not outcome.ok
    assert outcome.error == "RuntimeError: boom"
    assert calls == [FAST]


def test_failed_point_does_not_kill_sweep():
    sweep = run_rate_sweep("thttpd", inactive=2, rates=(120.0,),
                           duration=0.8,
                           server_opts={"no_such_config_field": True})
    (placeholder,) = sweep.points
    record = point_record(placeholder)
    assert record["failed"] is True
    row = placeholder.row()
    assert row["rate"] == 120.0
    assert row["avg"] != row["avg"]  # NaN
    json.dumps(record)  # artifact-safe


def test_failed_point_result_shape():
    (outcome,) = run_points([BROKEN], jobs=1)
    placeholder = failed_point_result(outcome)
    assert placeholder.record["error"] == outcome.error
    assert set(placeholder.row()) == {
        "rate", "avg", "min", "max", "stddev", "errors_pct", "median_ms",
        "p99_ms"}


def test_suite_survives_failed_point():
    from repro.bench.suites import BenchSuite

    suite = BenchSuite("mixed", "one good point, one broken point",
                       (FAST, BROKEN))
    artifact = run_suite(suite, jobs=2, selfperf=False)
    good, bad = artifact["points"]
    assert not good.get("failed")
    assert bad["failed"] is True
    assert bad["label"] == "thttpd@120/2"
    json.dumps(artifact)


# ---------------------------------------------------------------------------
# fallback
# ---------------------------------------------------------------------------

def test_pool_startup_failure_falls_back_inprocess(monkeypatch):
    import repro.bench.parallel as parallel

    def refuse(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
    outcomes = run_points([FAST, FAST], jobs=2)
    assert all(o.ok for o in outcomes)
    # fallback executes in this process: real PointResults, not shims
    assert all(not isinstance(o.result, PortablePointResult)
               for o in outcomes)


# ---------------------------------------------------------------------------
# the determinism contract (the ISSUE's acceptance test)
# ---------------------------------------------------------------------------

def test_smoke_suite_parallel_is_byte_identical_to_serial():
    """`smoke` serial vs --jobs 4: identical point records minus the
    wall-clock fields."""
    serial = run_suite("smoke", selfperf=False)
    parallel = run_suite("smoke", jobs=4, selfperf=False)
    assert serial["fingerprint"] == parallel["fingerprint"]
    s_points = [strip_wall_clock(e) for e in serial["points"]]
    p_points = [strip_wall_clock(e) for e in parallel["points"]]
    assert (json.dumps(s_points, sort_keys=True)
            == json.dumps(p_points, sort_keys=True))
