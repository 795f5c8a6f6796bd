"""Metrics registry: counts, gauges, histograms."""

import pytest

from repro.obs.latency import LatencyHistogram
from repro.obs.metrics import Gauge, MetricsRegistry


def test_gauge_moves_both_ways():
    g = Gauge("open")
    g.inc()
    g.inc(2)
    g.dec()
    assert g.value == 2
    g.set(7.5)
    assert g.value == 7.5


class TestHistogram:
    def test_mean(self):
        h = MetricsRegistry().histogram("lat")
        assert isinstance(h, LatencyHistogram)
        with pytest.raises(ValueError):
            h.mean()  # no samples yet: there is no mean
        h.record(1.0)
        h.record(3.0)
        assert h.mean() == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counts["a"] += 1
        with pytest.raises(ValueError):
            reg.gauge("a")
        with pytest.raises(ValueError):
            reg.histogram("a")
        reg.gauge("g")
        with pytest.raises(ValueError):
            reg.histogram("g")

    def test_snapshot_is_plain_data(self):
        import json

        reg = MetricsRegistry()
        reg.counts["c"] += 3
        reg.gauge("g").set(1.5)
        reg.histogram("h").record(0.5)
        reg.histogram("empty")
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"] == 3
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1
        assert snap["h"]["mean"] == 0.5
        assert snap["empty"] == {"count": 0}

    def test_snapshot_reports_histogram_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("batch")
        for size in range(1, 101):
            hist.record(size)
        snap = reg.snapshot()["batch"]
        assert snap == hist.summary()
        assert snap["count"] == 100
        assert snap["p99"] == pytest.approx(99.0, rel=0.08)
        assert snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["p99.9"]

    def test_render_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counts["sys.read"] += 1
        reg.histogram("lat").record(0.5)
        reg.histogram("idle")
        text = reg.render()
        assert "sys.read: 1" in text
        assert "lat: n=1 mean=0.5" in text
        assert "idle: n=0 mean=nan" in text


    def test_a_count_exists_once_counted(self):
        reg = MetricsRegistry()
        assert reg.counts.get("sys.read") is None
        assert reg.names() == []
        reg.counts["sys.read"] += 1
        reg.counts["events.poll.events"] += 0  # counted, by nothing
        reg.gauge("tcp.open_connections").set(2)
        assert reg.names() == ["events.poll.events", "sys.read",
                               "tcp.open_connections"]
        assert reg.snapshot() == {"events.poll.events": 0, "sys.read": 1,
                                  "tcp.open_connections": 2}
