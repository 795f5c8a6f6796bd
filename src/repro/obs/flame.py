"""Flamegraph export: folded stacks from spans and CPU attribution.

A run leaves two complementary views -- the :class:`SpanTracer` ring
(who was doing what, when, nested) and the CPU profile (where every
charged CPU microsecond went) -- but both die with the process.  This
module collapses either (or both) into the *folded stack* format every
flamegraph renderer understands, one line per unique stack::

    bench;measure;dp_poll 1234

where the trailing integer is microseconds of *self* time (span time
not covered by a child span).  Feed the file to Brendan Gregg's
``flamegraph.pl``, speedscope, or any folded-stack viewer -- or render
:func:`ascii_flame` for a terminal-only top-down view.

Span nesting is reconstructed per *track* (the simulated process that
opened the span) by start/end time containment: spans from concurrent
processes can never adopt each other as parents, because they live on
different tracks.  Rings recorded without track information (older
exports, hand-built tracers) collapse onto the single ``None`` track,
which reproduces the historical global-containment behaviour exactly.
The recorded ``depth`` is still ignored in favour of containment --
containment reflects "the device was polled during the measure window"
even when a span's begin/end calls raced a timeout.  Spans that outlive
every candidate parent (a request aborted after the measure window
closes) degrade gracefully to new roots instead of corrupting stacks.
Profiler attribution has no caller context, so it folds under a
synthetic ``cpu`` root: ``cpu;devpoll;driver_callback 4567``.  The
profile is read as plain data (:meth:`ProfileReport.as_dict`), so the
same fold serves ``repro point --flame`` and a capacity knee whose
profiler ran in a worker process.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .spans import Span, SpanTracer

#: folded-stack weights are microseconds
USEC = 1e6


def collapse_spans(spans: Iterable[Span]) -> Dict[str, float]:
    """Fold completed spans into {stack_path: self_microseconds}.

    A root span's frame is ``subsystem;name`` (so unrelated subsystems
    stay distinct at the top of the graph); nested frames are the span
    name alone, matching how the harness/server/kernel spans read.

    Spans are grouped by :attr:`Span.track` first, so a span can only
    nest under a span from the same simulated process.  All-trackless
    input forms a single group, which is the pre-track fallback path.
    """
    by_track: Dict[object, List[Span]] = {}
    for span in spans:
        if span.end is None:
            continue
        by_track.setdefault(getattr(span, "track", None), []).append(span)
    folded: Dict[str, float] = {}
    for track_spans in by_track.values():
        _collapse_track(track_spans, folded)
    return folded


def _collapse_track(spans: List[Span], folded: Dict[str, float]) -> None:
    """Containment pass over one track's completed spans (into ``folded``)."""
    # widest-first at equal starts, so the enclosing span becomes parent
    done = sorted(spans, key=lambda s: (s.start, -s.end, s.depth))
    paths: Dict[int, str] = {}
    child_time: Dict[int, float] = {}
    stack: List[Span] = []
    for span in done:
        while stack and not (stack[-1].start <= span.start
                             and span.end <= stack[-1].end):
            stack.pop()
        if stack:
            parent = stack[-1]
            child_time[id(parent)] = (child_time.get(id(parent), 0.0)
                                      + (span.duration or 0.0))
            paths[id(span)] = f"{paths[id(parent)]};{span.name}"
        else:
            paths[id(span)] = f"{span.subsystem};{span.name}"
        stack.append(span)
    for span in done:
        self_time = max(0.0, (span.duration or 0.0)
                        - child_time.get(id(span), 0.0))
        key = paths[id(span)]
        folded[key] = folded.get(key, 0.0) + self_time * USEC


def collapse_profile(profile: Dict[str, Any]) -> Dict[str, float]:
    """Fold a profile report dict (:meth:`ProfileReport.as_dict`) into
    {``cpu;subsystem;operation``: usec}."""
    return {f"cpu;{row['subsystem']};{row['operation']}":
            float(row["cpu_seconds"]) * USEC
            for row in profile.get("rows", []) if row["cpu_seconds"] > 0}


def folded_stacks(tracer: Optional[SpanTracer] = None,
                  profile: Optional[Dict[str, Any]] = None) -> List[str]:
    """Folded-stack lines from whichever sources are available.

    ``profile`` is a profile report dict (:meth:`ProfileReport.as_dict`).
    Weights are rounded to whole microseconds; stacks rounding to zero
    are dropped (flamegraph.pl ignores them anyway).  Lines are sorted
    by path so output is diff-stable.
    """
    folded: Dict[str, float] = {}
    if tracer is not None:
        folded.update(collapse_spans(tracer.spans()))
    if profile is not None:
        folded.update(collapse_profile(profile))
    return [f"{path} {round(weight)}"
            for path, weight in sorted(folded.items()) if round(weight) > 0]


def write_folded(lines: Iterable[str], path: str) -> int:
    """Write folded-stack lines to ``path``; returns the line count."""
    lines = list(lines)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


# ---------------------------------------------------------------------------
# terminal rendering
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("total", "children")

    def __init__(self) -> None:
        self.total = 0.0
        self.children: Dict[str, "_Node"] = {}


def _build_tree(parsed: Iterable[Tuple[List[str], float]]) -> _Node:
    root = _Node()
    for frames, weight in parsed:
        root.total += weight
        node = root
        for frame in frames:
            node = node.children.setdefault(frame, _Node())
            node.total += weight
    return root


def _parse_folded(lines: Iterable[str]) -> List[Tuple[List[str], float]]:
    parsed = []
    for line in lines:
        path, _, weight = line.rpartition(" ")
        if not path:
            continue
        parsed.append((path.split(";"), float(weight)))
    return parsed


def ascii_flame(lines: Iterable[str], width: int = 40,
                min_share: float = 0.002,
                title: str = "flame (self time, usec)") -> str:
    """Top-down ASCII rendition of folded stacks.

    Each frame gets one row: a bar proportional to its *inclusive*
    weight, its share of the grand total, its inclusive microseconds,
    and the frame name indented by stack depth.  Siblings are sorted
    heaviest first; frames below ``min_share`` of the total are rolled
    into a trailing ellipsis row so deep traces stay readable.
    """
    parsed = _parse_folded(lines)
    if not parsed:
        return f"{title}\n(no data)"
    root = _build_tree(parsed)
    total = root.total or 1.0
    out = [title]

    def render(node: _Node, depth: int) -> None:
        children = sorted(node.children.items(), key=lambda kv: -kv[1].total)
        hidden = 0.0
        hidden_n = 0
        for frame, child in children:
            share = child.total / total
            if share < min_share:
                hidden += child.total
                hidden_n += 1
                continue
            bar = "#" * max(1, round(width * share))
            out.append(f"[{bar:<{width}}] {100 * share:5.1f}% "
                       f"{child.total:>10.0f}us  {'  ' * depth}{frame}")
            render(child, depth + 1)
        if hidden_n:
            out.append(f"[{'':<{width}}] {100 * hidden / total:5.1f}% "
                       f"{hidden:>10.0f}us  {'  ' * depth}"
                       f"... {hidden_n} frame(s) below threshold")

    render(root, 0)
    out.append(f"total: {total:.0f}us across {len(parsed)} stack(s)")
    return "\n".join(out)
