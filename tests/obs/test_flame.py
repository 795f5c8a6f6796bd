"""Tests for folded-stack collapse and the ASCII flame view."""

import pytest

from repro.obs.flame import (
    ascii_flame,
    collapse_profile,
    collapse_spans,
    folded_stacks,
    write_folded,
)
from repro.obs.profiler import CpuProfiler
from repro.obs.spans import SpanTracer


def traced(spans):
    """Build an enabled tracer and replay (subsystem, name, start, end)."""
    tracer = SpanTracer(enabled=True)
    open_spans = {}
    events = []
    for subsystem, name, start, end in spans:
        events.append((start, "begin", (subsystem, name, start, end)))
        events.append((end, "end", (subsystem, name, start, end)))
    for t, kind, key in sorted(events, key=lambda e: (e[0], e[1] != "end")):
        if kind == "begin":
            open_spans[key] = tracer.begin(t, key[0], key[1])
        else:
            tracer.end(t, open_spans.pop(key))
    return tracer


def test_collapse_nested_spans_self_time():
    tracer = traced([
        ("bench", "measure", 0.0, 10.0),
        ("devpoll", "dp_poll", 1.0, 4.0),
        ("thttpd", "request", 5.0, 6.0),
    ])
    folded = collapse_spans(tracer.spans())
    # root frame carries its subsystem; nested frames are names alone
    assert folded["bench;measure"] == pytest.approx(6.0 * 1e6)
    assert folded["bench;measure;dp_poll"] == pytest.approx(3.0 * 1e6)
    assert folded["bench;measure;request"] == pytest.approx(1.0 * 1e6)


def test_collapse_ignores_unreliable_depth():
    # concurrent processes interleave on the tracer's global stack:
    # dp_poll opens first (depth 0), measure second (depth 1), yet time
    # containment must still make dp_poll at 2..3 a child of measure
    tracer = SpanTracer(enabled=True)
    early = tracer.begin(0.0, "devpoll", "dp_poll")
    measure = tracer.begin(0.5, "bench", "measure")
    tracer.end(1.0, early)
    inner = tracer.begin(2.0, "devpoll", "dp_poll")
    tracer.end(3.0, inner)
    tracer.end(10.0, measure)
    folded = collapse_spans(tracer.spans())
    assert folded["bench;measure;dp_poll"] == pytest.approx(1.0 * 1e6)
    # the early span is not contained in measure: it stays a root
    assert folded["devpoll;dp_poll"] == pytest.approx(1.0 * 1e6)


def test_collapse_sibling_aggregation():
    tracer = traced([
        ("bench", "measure", 0.0, 10.0),
        ("devpoll", "dp_poll", 1.0, 2.0),
        ("devpoll", "dp_poll", 3.0, 5.0),
    ])
    folded = collapse_spans(tracer.spans())
    assert folded["bench;measure;dp_poll"] == pytest.approx(3.0 * 1e6)


def test_collapse_profile_synthetic_root():
    profiler = CpuProfiler()
    profiler.record("devpoll.scan", 0.002)
    profiler.record("close", 0.001)
    folded = collapse_profile(profiler.report().as_dict())
    assert folded["cpu;devpoll;scan"] == pytest.approx(2000.0)
    assert folded["cpu;syscall;close"] == pytest.approx(1000.0)


def test_folded_stacks_combines_sources_and_rounds():
    tracer = traced([("bench", "measure", 0.0, 1.0)])
    profiler = CpuProfiler()
    profiler.record("net.rx", 0.0005)
    profiler.record("net.zero", 1e-9)  # rounds to 0 usec -> dropped
    lines = folded_stacks(tracer, profiler.report().as_dict())
    assert "bench;measure 1000000" in lines
    assert "cpu;net;rx 500" in lines
    assert not any("zero" in line for line in lines)
    assert lines == sorted(lines)


def test_folded_stacks_accepts_missing_sources():
    assert folded_stacks() == []
    assert folded_stacks(tracer=SpanTracer(enabled=True)) == []


def test_write_folded(tmp_path):
    path = tmp_path / "stacks.folded"
    count = write_folded(["a;b 10", "c 5"], str(path))
    assert count == 2
    assert path.read_text() == "a;b 10\nc 5\n"


def test_ascii_flame_renders_tree():
    lines = ["bench;measure 600000", "bench;measure;dp_poll 300000",
             "cpu;net;rx 100000"]
    out = ascii_flame(lines, width=20)
    assert "measure" in out
    assert "dp_poll" in out
    # dp_poll is indented deeper than measure
    measure_line = next(l for l in out.splitlines() if "measure" in l)
    dp_line = next(l for l in out.splitlines() if "dp_poll" in l)
    assert dp_line.index("dp_poll") > measure_line.index("measure")
    # inclusive weights: bench = 900000 of 1000000 total
    assert "90.0%" in out
    assert "total: 1000000us" in out


def test_ascii_flame_empty():
    assert "(no data)" in ascii_flame([])


def test_end_to_end_point_flame():
    from repro.bench import BenchmarkPoint, run_point

    result = run_point(BenchmarkPoint(
        server="thttpd-devpoll", rate=100, inactive=5, duration=1.0,
        trace=True, profile=True))
    lines = folded_stacks(result.testbed.tracer,
                          result.profiler.report().as_dict())
    paths = {line.rpartition(" ")[0] for line in lines}
    # dp_poll runs on the *server process* track, the measure span on
    # the trackless harness: per-track nesting keeps them apart, so the
    # device poll is its own root instead of a fake measure child
    assert any(p.startswith("devpoll;dp_poll") for p in paths)
    assert not any(p.startswith("bench;measure;dp_poll") for p in paths)
    assert any(p.startswith("bench;measure") for p in paths)
    # profiler attribution folds under the synthetic cpu root
    assert any(p.startswith("cpu;") for p in paths)
    rendered = ascii_flame(lines)
    assert "measure" in rendered
