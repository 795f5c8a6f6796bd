"""Span tracer: nesting, bounded ring with counted drops, JSONL export."""

import json

from repro.obs.spans import Span, SpanTracer, TraceRecord


def test_disabled_tracer_records_nothing():
    t = SpanTracer(enabled=False)
    t.trace(1.0, "x", "hello")
    assert t.begin(1.0, "x", "op") is None
    t.end(2.0, None)  # ending a None span is a no-op
    assert t.records() == []
    assert t.spans() == []


def test_trace_records_are_ordered_and_filterable():
    t = SpanTracer(enabled=True)
    t.trace(1.0, "poll", "first")
    t.trace(2.0, "devpoll", "second")
    t.trace(3.0, "poll", "third")
    assert [r.message for r in t.records()] == ["first", "second", "third"]
    assert [r.message for r in t.records("poll")] == ["first", "third"]
    assert isinstance(t.records()[0], TraceRecord)


def test_span_nesting_depth():
    t = SpanTracer(enabled=True)
    outer = t.begin(0.0, "bench", "measure")
    inner = t.begin(1.0, "devpoll", "dp_poll", interests=3)
    assert outer.depth == 0
    assert inner.depth == 1
    assert t.open_spans == [outer, inner]
    t.end(2.0, inner, ready=2)
    t.end(3.0, outer)
    assert t.open_spans == []
    assert inner.duration == 1.0
    assert outer.duration == 3.0
    assert inner.attrs == {"interests": 3, "ready": 2}


def test_out_of_order_end_tolerated():
    t = SpanTracer(enabled=True)
    a = t.begin(0.0, "s", "a")
    b = t.begin(1.0, "s", "b")
    t.end(2.0, a)  # a closed while b still open
    assert t.open_spans == [b]
    t.end(3.0, b)
    assert {s.name for s in t.spans()} == {"a", "b"}


def test_ring_overflow_counts_drops_and_keeps_newest():
    t = SpanTracer(enabled=True, capacity=3)
    for i in range(5):
        t.trace(float(i), "x", f"msg{i}")
    assert t.dropped == 2
    assert [r.message for r in t.records()] == ["msg2", "msg3", "msg4"]


def test_dump_surfaces_dropped_count():
    t = SpanTracer(enabled=True, capacity=2)
    for i in range(4):
        t.trace(float(i), "x", f"m{i}")
    dump = t.dump()
    assert "m3" in dump
    assert "2 older record(s) dropped" in dump
    t.clear()
    assert t.dropped == 0
    assert "dropped" not in t.dump()


def test_spans_share_the_ring_with_events():
    t = SpanTracer(enabled=True, capacity=2)
    s = t.begin(0.0, "x", "op")
    t.end(1.0, s)
    t.trace(2.0, "x", "a")
    t.trace(3.0, "x", "b")
    assert t.dropped == 1  # the finished span record was evicted


def test_export_jsonl(tmp_path):
    t = SpanTracer(enabled=True)
    t.trace(0.5, "net", "packet")
    s = t.begin(1.0, "http", "request", fd=7, obj=object())
    t.end(2.0, s, outcome="responded")
    path = tmp_path / "trace.jsonl"
    t.export_jsonl(str(path))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["type"] == "meta"
    assert lines[0]["dropped"] == 0
    events = [l for l in lines if l["type"] == "event"]
    spans = [l for l in lines if l["type"] == "span"]
    assert events[0]["subsystem"] == "net"
    assert spans[0]["name"] == "request"
    assert spans[0]["attrs"]["fd"] == 7
    assert isinstance(spans[0]["attrs"]["obj"], str)  # repr'd, not raw


def test_span_message_property():
    s = Span(subsystem="x", name="op", start=1.0, end=2.5,
             attrs={"fd": 3})
    assert "op" in s.message
    assert s.duration == 1.5


# ---------------------------------------------------------------------------
# per-track nesting (concurrent simulated processes)
# ---------------------------------------------------------------------------

def test_per_track_depths_are_independent():
    t = SpanTracer(enabled=True)
    track_a, track_b = object(), object()
    a_outer = t.begin(0.0, "s", "a.outer", track=track_a)
    b_outer = t.begin(0.1, "s", "b.outer", track=track_b)
    a_inner = t.begin(0.2, "s", "a.inner", track=track_a)
    b_inner = t.begin(0.3, "s", "b.inner", track=track_b)
    # a global stack would have counted 0,1,2,3 here
    assert (a_outer.depth, b_outer.depth) == (0, 0)
    assert (a_inner.depth, b_inner.depth) == (1, 1)
    assert sorted(s.name for s in t.open_spans) == [
        "a.inner", "a.outer", "b.inner", "b.outer"]
    for span in (a_inner, a_outer, b_inner, b_outer):
        t.end(1.0, span)
    assert t.open_spans == []


def test_trackless_callers_share_one_stack():
    t = SpanTracer(enabled=True)
    outer = t.begin(0.0, "s", "outer")
    inner = t.begin(0.1, "s", "inner")
    assert (outer.depth, inner.depth) == (0, 1)
    assert outer.track is None and inner.track is None


def test_concurrent_processes_nest_on_their_own_tracks():
    """Integration: Kernel.span keys the stack on sim.current_process,
    so two interleaved server loops never inflate each other's depths."""
    from repro.kernel.kernel import Kernel
    from repro.sim.engine import Simulator
    from repro.sim.process import spawn

    kernel = Kernel(Simulator(), "k", tracer=SpanTracer(enabled=True))
    sim = kernel.sim

    def worker(name, start_delay):
        yield sim.timeout(start_delay)
        outer = kernel.span("worker", f"{name}.outer")
        yield sim.timeout(0.05)
        inner = kernel.span("worker", f"{name}.inner")
        yield sim.timeout(0.05)
        kernel.span_end(inner)
        kernel.span_end(outer)

    proc_a = spawn(sim, worker("a", 0.0), "proc-a")
    proc_b = spawn(sim, worker("b", 0.02), "proc-b")
    sim.run()
    spans = {s.name: s for s in kernel.tracer.spans()}
    assert spans["a.outer"].depth == 0
    assert spans["b.outer"].depth == 0  # interleaved, yet still a root
    assert spans["a.inner"].depth == 1
    assert spans["b.inner"].depth == 1
    assert spans["a.outer"].track is proc_a
    assert spans["b.outer"].track is proc_b
    assert spans["a.inner"].track is spans["a.outer"].track


def test_export_jsonl_records_track_name(tmp_path):
    class Proc:
        name = "server-loop"

    t = SpanTracer(enabled=True)
    tracked = t.begin(0.0, "s", "tracked", track=Proc())
    t.end(1.0, tracked)
    bare = t.begin(2.0, "s", "bare")
    t.end(3.0, bare)
    path = tmp_path / "trace.jsonl"
    t.export_jsonl(str(path))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    spans = {l["name"]: l for l in lines if l["type"] == "span"}
    assert spans["tracked"]["track"] == "server-loop"
    assert spans["bare"]["track"] is None
