"""Tests for experiment-record serialization."""

import json

import pytest

from repro.bench.figures import fig05
from repro.bench.harness import BenchmarkPoint, run_point
from repro.bench.records import (
    RECORD_VERSION,
    dump_figure_record,
    figure_record,
    load_figure_record,
    point_record,
)


@pytest.fixture(scope="module")
def figure():
    return fig05(rates=(150,), duration=1.5, seed=4)


def test_point_record_fields():
    result = run_point(BenchmarkPoint(server="phhttpd", rate=100,
                                      inactive=5, duration=1.5, seed=4))
    record = point_record(result)
    assert record["server"] == "phhttpd"
    assert record["reply_rate"]["avg"] == pytest.approx(100, rel=0.3)
    assert record["errors"]["timeouts"] == 0
    assert record["mode"] == "signals"         # server-specific extras
    assert record["latency_ms"]["median"] > 0
    json.dumps(record)  # fully JSON-serializable


def test_figure_record_roundtrip(figure, tmp_path):
    path = tmp_path / "fig05.json"
    dump_figure_record(figure, str(path))
    loaded = load_figure_record(str(path))
    assert loaded["figure_id"] == "fig05"
    assert loaded["x_rates"] == [150]
    assert loaded["series"]["Average"][0] == pytest.approx(
        figure.series["Average"][0])
    assert loaded["sweeps"]["thttpd-devpoll"]["points"][0]["rate"] == 150


def test_point_record_is_reproducible():
    """Every config field needed to re-run the point is archived."""
    point = BenchmarkPoint(server="thttpd", rate=120, inactive=3,
                           duration=1.2, seed=7, num_conns=None,
                           client_fd_limit=2048, drain=0.5,
                           document_bytes=1024)
    record = point_record(run_point(point))
    assert record["num_conns"] is None
    assert record["client_fd_limit"] == 2048
    assert record["drain"] == 0.5
    assert record["document_bytes"] == 1024
    assert record["document_sizes"] is None
    assert record["inactive_reconnects"] >= 0
    pct = record["latency_percentiles"]
    assert pct["p50"] <= pct["p90"] <= pct["p99"] <= pct["p99.9"]
    assert record["server_latency_percentiles"]["count"] \
        == record["server_stats"]["responses"]


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"record_version": RECORD_VERSION + 1}))
    with pytest.raises(ValueError):
        load_figure_record(str(path))
    path.write_text(json.dumps({"record_version": "1"}))
    with pytest.raises(ValueError):
        load_figure_record(str(path))


def test_load_accepts_older_versions(tmp_path):
    """v1 records (pre-reproducibility fields) still load; new keys are
    simply absent, per the migration note on RECORD_VERSION."""
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({
        "record_version": 1, "figure_id": "fig05", "title": "t",
        "x_rates": [150], "series": {"Average": [149.0]}, "sweeps": {}}))
    record = load_figure_record(str(path))
    assert record["figure_id"] == "fig05"
    assert "latency_percentiles" not in record.get("sweeps", {})
