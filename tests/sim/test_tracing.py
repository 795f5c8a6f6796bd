"""Tests for the trace ring buffer."""

from repro.obs.spans import NULL_TRACER, SpanTracer


def test_disabled_tracer_records_nothing():
    t = SpanTracer(enabled=False)
    t.trace(1.0, "net", "hello")
    assert t.records() == []


def test_enabled_tracer_records_and_filters():
    t = SpanTracer(enabled=True)
    t.trace(1.0, "net", "rx")
    t.trace(2.0, "http", "req")
    assert len(t.records()) == 2
    assert [r.message for r in t.records("net")] == ["rx"]


def test_ring_capacity_bounds_memory():
    t = SpanTracer(enabled=True, capacity=3)
    for i in range(10):
        t.trace(float(i), "s", str(i))
    assert [r.message for r in t.records()] == ["7", "8", "9"]


def test_clear_and_dump():
    t = SpanTracer(enabled=True)
    t.trace(1.25, "sub", "msg")
    assert "sub" in t.dump() and "msg" in t.dump()
    t.clear()
    assert t.records() == []


def test_null_tracer_is_disabled():
    assert NULL_TRACER.enabled is False
