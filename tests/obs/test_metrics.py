"""Metrics registry: counts, gauges, histogram bucket edges."""

import pytest

from repro.obs.metrics import Gauge, Histogram, MetricsRegistry


def test_gauge_moves_both_ways():
    g = Gauge("open")
    g.inc()
    g.inc(2)
    g.dec()
    assert g.value == 2
    g.set(7.5)
    assert g.value == 7.5


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(0.5)   # <= 1.0
        h.observe(1.0)   # exactly on a bound -> that bucket
        h.observe(1.001)  # just past -> next bucket
        h.observe(4.0)   # last bound, inclusive
        h.observe(4.001)  # overflow
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5

    def test_bucket_counts_marks_overflow_with_none(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(9.0)
        assert h.bucket_counts() == [(1.0, 0), (None, 1)]

    def test_mean(self):
        h = Histogram("lat", buckets=(10.0,))
        assert h.mean() == 0.0
        h.observe(1.0)
        h.observe(3.0)
        assert h.mean() == 2.0

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())


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
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"] == 3
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1
        assert snap["h"]["buckets"][0] == {"le": 1.0, "count": 1}

    def test_render_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counts["sys.read"] += 1
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = reg.render()
        assert "sys.read: 1" in text
        assert "lat: n=1" in text


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
