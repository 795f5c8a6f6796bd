"""Tests for the capacity calibration range and CPU attribution helpers."""

import pytest

from repro.bench.calibration import cpu_breakdown, per_request_cost_us
from repro.bench.capacity import (
    CapacitySearch,
    matrix_cells,
    run_capacity_matrix,
)
from repro.bench.harness import BenchmarkPoint, run_point


@pytest.fixture(scope="module")
def devpoll_knee_cell():
    """The capacity search over devpoll at load 1, run once per module."""
    search = CapacitySearch(low=100.0, high=2400.0, tolerance=300.0,
                            duration=2.0, seed=3, timeline=0.0)
    (cell,) = run_capacity_matrix(matrix_cells(["devpoll"], [1]),
                                  search=search)["cells"]
    return cell


def test_measure_capacity_finds_a_knee(devpoll_knee_cell):
    cell = devpoll_knee_cell
    # DESIGN.md calibration target: the 0.4-speed host saturates around
    # 1000-1300 replies/s at load 1
    assert 700 <= cell["capacity"] <= 1600
    assert len(cell["probes"]) >= 3
    # probes at or below the knee sustained their offered rate
    for probe in cell["probes"]:
        if probe["rate"] <= cell["capacity"]:
            assert probe["sustained"]
            assert probe["reply_steady"] >= 0.9 * probe["rate"]


def test_measure_capacity_converges_within_tolerance(devpoll_knee_cell):
    cell = devpoll_knee_cell
    # the knee is bracketed: some probe within tolerance above the
    # returned capacity was offered and not sustained
    assert 0 < cell["capacity"] < 2400
    overshoots = [p["rate"] for p in cell["probes"]
                  if p["rate"] > cell["capacity"] and not p["sustained"]]
    assert overshoots
    assert min(overshoots) - cell["capacity"] <= 300


def test_cpu_breakdown_and_per_request_cost():
    result = run_point(BenchmarkPoint(server="thttpd-devpoll", rate=200,
                                      inactive=1, duration=2.0, seed=1))
    rows = cpu_breakdown(result, top=5)
    assert len(rows) == 5
    shares = [share for _c, _s, share in rows]
    assert all(0 <= s <= 1 for s in shares)
    assert rows[0][1] >= rows[-1][1]  # sorted descending

    cost = per_request_cost_us(result)
    # calibrated service cost: several hundred microseconds of 0.4-speed
    # CPU per request (DESIGN.md: ~1 ms all-in near saturation)
    assert cost is not None
    assert 200 < cost < 3000


def test_cpu_breakdown_sums_every_simulated_cpu():
    result = run_point(BenchmarkPoint(server="thttpd-select", rate=200,
                                      inactive=1, duration=2.0, seed=1,
                                      cpus=4, workers=4))
    kernel = result.testbed.server_kernel
    assert len(kernel.cpus) == 4
    per_cpu_busy = [sum(cpu.busy_by_category.values())
                    for cpu in kernel.cpus]
    # the workload genuinely spread: no single CPU holds all the time
    assert sum(1 for busy in per_cpu_busy if busy > 0) >= 2
    rows = cpu_breakdown(result, top=50)
    assert sum(seconds for _c, seconds, _s in rows) == \
        pytest.approx(sum(per_cpu_busy))
    assert sum(seconds for _c, seconds, _s in rows) > max(per_cpu_busy)

    cost = per_request_cost_us(result)
    assert cost is not None and cost > 0


def test_per_request_cost_none_without_replies():
    result = run_point(BenchmarkPoint(server="thttpd", rate=20,
                                      inactive=1, duration=0.2, seed=1,
                                      timeout=0.5))
    if result.httperf.replies_ok == 0:
        assert per_request_cost_us(result) is None
    else:  # extremely fast machine served them anyway
        assert per_request_cost_us(result) > 0
