"""Tests for the capacity matrix driver and its artifact."""

import json

import pytest

from repro.bench.capacity import (
    CAPACITY_ARTIFACT_VERSION,
    CapacitySearch,
    CellSpec,
    default_artifact_path,
    dump_capacity_artifact,
    load_capacity_artifact,
    matrix_cells,
    matrix_fingerprint,
    parse_smp,
    run_capacity_matrix,
)
from repro.obs.report import render_report

#: one cheap cell: bracket decides (tolerance spans the whole range)
FAST = CapacitySearch(low=100.0, high=400.0, tolerance=300.0,
                      duration=2.0, timeline=0.5)


def _strip_host_fields(artifact):
    scrubbed = dict(artifact)
    for key in ("created_unix", "wall_clock_s", "jobs", "rounds"):
        scrubbed.pop(key, None)
    return scrubbed


# ---------------------------------------------------------------------------
# specs and helpers
# ---------------------------------------------------------------------------

def test_matrix_cells_cross_product():
    cells = matrix_cells(["select", "epoll"], [1, 251], smp=[(1, 1), (2, 2)])
    assert len(cells) == 8
    assert cells[0].label == "select@1"
    assert CellSpec("select", 251, cpus=2, workers=2).label == \
        "select@251/2x2"


def test_cellspec_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        CellSpec("kqueue", 1)


def test_parse_smp():
    assert parse_smp("1x1,4x4") == [(1, 1), (4, 4)]
    with pytest.raises(ValueError):
        parse_smp("4")
    with pytest.raises(ValueError):
        parse_smp("")


def test_search_rejects_sub_window_duration():
    with pytest.raises(ValueError, match="duration"):
        CapacitySearch(duration=1.5)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def test_matrix_artifact_schema(tmp_path):
    cells = matrix_cells(["select"], [1])
    artifact = run_capacity_matrix(cells, search=FAST, name="t")
    assert artifact["capacity_artifact_version"] == CAPACITY_ARTIFACT_VERSION
    assert artifact["name"] == "t"
    assert artifact["fingerprint"] == matrix_fingerprint(cells, FAST)
    assert len(artifact["fingerprint"]) == 16
    assert artifact["backends"] == ["select"]
    assert artifact["inactive"] == [1]
    (cell,) = artifact["cells"]
    assert cell["label"] == "select@1"
    assert cell["capacity"] > 0
    assert cell["sustainable"] is True
    # bracket-only search: low and high, in order, both sustained
    assert [p["rate"] for p in cell["probes"]] == [100.0, 400.0]
    assert all(p["sustained"] for p in cell["probes"])
    assert cell["probes_executed"] == len(cell["probes"])
    assert cell["speculative_wasted"] == 0
    # the knee verification run populated the report inputs
    knee = cell["knee"]
    assert knee["rate"] == cell["capacity"]
    assert {"p50", "p90", "p99", "p99.9"} <= set(knee["latency_percentiles"])
    assert knee["profile_top"][0]["cpu_seconds"] > 0
    assert len(knee["timeline"]["samples"]) >= 3
    assert any(line.startswith("cpu;") for line in knee["folded_stacks"])
    # artifact round-trips through the dump/load gate
    path = tmp_path / default_artifact_path("t")
    dump_capacity_artifact(artifact, str(path))
    assert load_capacity_artifact(str(path)) == json.loads(path.read_text())


def test_smp_cell_lists_every_process_and_renders():
    """A 2x2 round-robin rtsig cell runs two phhttpd workers, each with
    its poll sibling: the knee's pathology block lists every process,
    and the report reads the shared scoreboard and sums the queues."""
    cells = matrix_cells(["rtsig"], [1], smp=[(2, 2)],
                         dispatch="round-robin")
    artifact = run_capacity_matrix(cells, search=FAST, name="smp")
    (cell,) = artifact["cells"]
    assert (cell["label"], cell["server"], cell["dispatch"]) == \
        ("rtsig@1/2x2", "phhttpd", "round-robin")
    assert cell["capacity"] > 0
    pathologies = cell["knee"]["pathologies"]
    assert [b["name"] for b in pathologies["backends"]] == \
        ["rtsig", "poll", "rtsig", "poll"]
    assert len(pathologies["server"]) == 4
    assert len(pathologies["signal_queue"]) == 2
    html = render_report(artifact)
    assert "Pathologies at the knee" in html
    assert "rtsig@1/2x2" in html


def test_unsustainable_low_short_circuits():
    # the floor itself is far beyond the simulated host
    search = CapacitySearch(low=5000.0, high=6000.0, tolerance=500.0,
                            duration=2.0, timeline=0.0)
    artifact = run_capacity_matrix(matrix_cells(["select"], [251]),
                                   search=search)
    (cell,) = artifact["cells"]
    assert cell["capacity"] == 0.0
    assert cell["sustainable"] is False
    assert cell["knee"] is None
    # the bracket still probes both ends (they are scheduled together)
    assert [p["rate"] for p in cell["probes"]] == [5000.0, 6000.0]
    assert not any(p["sustained"] for p in cell["probes"])


def test_jobs_and_speculation_keep_history_identical():
    cells = matrix_cells(["select"], [251])
    search = CapacitySearch(low=100.0, high=800.0, tolerance=200.0,
                            duration=2.0, timeline=0.0)
    serial = run_capacity_matrix(cells, search=search, name="d")
    parallel = run_capacity_matrix(cells, search=search, name="d", jobs=2)
    cell_s, cell_p = serial["cells"][0], parallel["cells"][0]
    # the search bisected (not a bracket-only degenerate case)
    assert len(cell_s["probes"]) > 2
    # probe history and knee record are byte-identical; only the
    # scheduling counters may differ (speculation)
    assert cell_s["probes"] == cell_p["probes"]
    assert cell_s["capacity"] == cell_p["capacity"]
    assert cell_s["knee"] == cell_p["knee"]
    assert cell_p["probes_executed"] == \
        len(cell_p["probes"]) + cell_p["speculative_wasted"]
    assert serial["fingerprint"] == parallel["fingerprint"]
    # a rerun of the same serial config reproduces the whole artifact
    # minus host-time fields
    again = run_capacity_matrix(cells, search=search, name="d")
    assert _strip_host_fields(again) == _strip_host_fields(serial)


def test_fingerprint_tracks_configuration():
    cells = matrix_cells(["select"], [1])
    base = matrix_fingerprint(cells, FAST)
    assert base == matrix_fingerprint(matrix_cells(["select"], [1]), FAST)
    assert base != matrix_fingerprint(matrix_cells(["epoll"], [1]), FAST)
    assert base != matrix_fingerprint(
        cells, CapacitySearch(low=100.0, high=500.0, tolerance=300.0,
                              duration=2.0))
    # speculation never changes measurements, so it is not fingerprinted
    spec_off = CapacitySearch(low=FAST.low, high=FAST.high,
                              tolerance=FAST.tolerance, duration=FAST.duration,
                              timeline=FAST.timeline, speculate=False)
    assert base == matrix_fingerprint(cells, spec_off)


def test_matrix_rejects_empty_and_duplicate_cells():
    with pytest.raises(ValueError, match="at least one"):
        run_capacity_matrix([], search=FAST)
    cell = CellSpec("select", 1)
    with pytest.raises(ValueError, match="duplicate"):
        run_capacity_matrix([cell, CellSpec("select", 1)], search=FAST)


def test_load_rejects_future_artifact(tmp_path):
    path = tmp_path / "CAPACITY_future.json"
    path.write_text(json.dumps(
        {"capacity_artifact_version": CAPACITY_ARTIFACT_VERSION + 1}))
    with pytest.raises(ValueError, match="version"):
        load_capacity_artifact(str(path))
