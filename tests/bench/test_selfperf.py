"""Tests for the harness self-measurement micro-benchmark."""

import json

import pytest

from repro.bench.selfperf import (
    run_engine_churn,
    run_point_workload,
    run_selfperf,
)
from repro.bench.suites import BenchSuite, run_suite
from repro.bench.harness import BenchmarkPoint


def test_engine_churn_measures_throughput():
    result = run_engine_churn(n_timers=2000)
    assert result.workload == "engine_churn"
    assert result.events_processed == 2000 - result.detail["timers_cancelled"]
    assert result.sim_wall_seconds > 0
    assert result.events_per_second > 0
    json.dumps(result.as_dict())


def test_engine_churn_simulated_work_is_deterministic():
    a = run_engine_churn(n_timers=4000)
    b = run_engine_churn(n_timers=4000)
    # host seconds differ; everything simulated must not
    assert a.events_processed == b.events_processed
    assert a.detail["timers_cancelled"] == b.detail["timers_cancelled"]
    assert a.detail["heap_compactions"] == b.detail["heap_compactions"]
    assert a.detail["cancelled_purged"] == b.detail["cancelled_purged"]


def test_engine_churn_exercises_compaction():
    detail = run_engine_churn().detail
    assert detail["heap_compactions"] >= 1
    assert detail["cancelled_purged"] > 0


def test_point_workload_reports_full_stack_numbers():
    result = run_point_workload(duration=0.5)
    assert result.workload == "point"
    assert result.events_processed > 0
    assert result.detail["replies_ok"] > 0
    assert result.events_per_second > 0
    # the ratchet metric: fixed simulated work over host time
    assert result.detail["simulated_seconds"] > 0.5
    assert result.detail["sim_seconds_per_second"] == pytest.approx(
        result.detail["simulated_seconds"] / result.sim_wall_seconds,
        rel=1e-2)


def test_run_selfperf_block_shape():
    block = run_selfperf(include_point=False)
    assert set(block) == {"engine_churn"}
    churn = block["engine_churn"]
    for key in ("events_processed", "sim_wall_seconds", "events_per_second",
                "heap_compactions"):
        assert key in churn
    json.dumps(block)


def test_suite_artifact_embeds_selfperf():
    suite = BenchSuite(
        "tiny-perf", "one fast point",
        (BenchmarkPoint(server="thttpd", rate=100.0, inactive=1,
                        duration=0.5),))
    artifact = run_suite(suite)
    assert "selfperf" in artifact
    assert artifact["selfperf"]["engine_churn"]["events_per_second"] > 0
    assert artifact["selfperf"]["point"]["events_per_second"] > 0
    (entry,) = artifact["points"]
    assert entry["sim_events"] > 0
    assert entry["sim_wall_seconds"] > 0
    assert entry["events_per_second"] > 0


def test_run_selfperf_best_of_repeat():
    block = run_selfperf(include_point=False, repeat=3)
    assert block["engine_churn"]["best_of"] == 3
    # deterministic fields are unaffected by repetition
    assert block["engine_churn"]["events_processed"] == 8000


def test_churn_setup_is_reported_but_not_timed():
    result = run_engine_churn(n_timers=4000)
    assert result.detail["setup_seconds"] >= 0
    # the timed region is the drain alone; events/s must be derived
    # from sim_wall_seconds, not setup + drain
    assert result.events_per_second == pytest.approx(
        result.events_processed / result.sim_wall_seconds, rel=1e-6)


def test_calibration_returns_positive_score():
    from repro.bench.selfperf import run_calibration

    assert run_calibration(loops=50000) > 0


def test_run_selfperf_calibrate_adds_block():
    block = run_selfperf(include_point=False, calibrate=True)
    assert block["calibration"]["loops_per_second"] > 0
    assert block["calibration"]["loops"] > 0


def test_check_floor_passes_and_fails():
    from repro.bench.selfperf import check_floor

    block = {
        "engine_churn": {"events_per_second": 1_000_000.0},
        "point": {"events_per_second": 100_000.0,
                  "sim_seconds_per_second": 20.0},
        "calibration": {"loops_per_second": 30_000_000.0},
    }
    floor = {
        "calibration_loops_per_second": 30_000_000.0,
        "margin": 0.5,
        "floors": {"engine_churn": {"events_per_second": 1_000_000.0},
                   "point": {"sim_seconds_per_second": 20.0}},
    }
    ok, lines = check_floor(block, floor)
    assert ok
    assert any("engine_churn" in line for line in lines)

    # a measurement below floor * margin fails
    slow = dict(block, engine_churn={"events_per_second": 400_000.0})
    ok, lines = check_floor(slow, floor)
    assert not ok
    assert any("BELOW FLOOR" in line for line in lines)

    # the point is gated on simulated seconds per host second, not on
    # its (informational) events/s
    fewer_events = dict(block, point={"events_per_second": 1.0,
                                      "sim_seconds_per_second": 20.0})
    assert check_floor(fewer_events, floor)[0]
    slower = dict(block, point={"events_per_second": 1e9,
                                "sim_seconds_per_second": 9.0})
    assert not check_floor(slower, floor)[0]


def test_check_floor_scales_with_calibration():
    from repro.bench.selfperf import check_floor

    # host is 2x slower than the floor-setter: the scaled floor halves,
    # so the same measured number still passes
    block = {
        "engine_churn": {"events_per_second": 300_000.0},
        "calibration": {"loops_per_second": 15_000_000.0},
    }
    floor = {
        "calibration_loops_per_second": 30_000_000.0,
        "margin": 1.0,
        "floors": {"engine_churn": {"events_per_second": 500_000.0}},
    }
    ok, _ = check_floor(block, floor)
    assert ok   # 300k >= 500k * 0.5 * 1.0

    # missing workload fails
    ok, lines = check_floor({"calibration": block["calibration"]}, floor)
    assert not ok
    assert any("MISSING" in line for line in lines)
