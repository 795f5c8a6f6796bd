"""Span tracing: nested begin/end spans and point events.

A :class:`SpanTracer` records two kinds of entries into one bounded ring:

* *point events* -- the classic ``trace(now, subsystem, message)``
  tuples, unchanged;
* *spans* -- ``begin(now, subsystem, name, **attrs)`` /
  ``end(now, span, **attrs)`` pairs carrying a start/end time, a nesting
  depth, and arbitrary attributes.  A span enters the ring when it ends,
  so the ring stays time-ordered by completion.

Nesting depth is tracked *per track*: ``begin(..., track=process)``
keys an open-span stack on the opening process, so spans from
concurrently running simulated processes (the server loop vs the bench
harness) never inflate each other's depths.  Trackless callers share
the ``None`` track, which behaves exactly like the old global stack.

Unlike the old tracer, a full ring does not lose records silently: the
oldest entry is still evicted (memory stays bounded) but
:attr:`SpanTracer.dropped` counts every eviction and :meth:`dump`
reports it.

Tracing is off by default and costs a single attribute check per call
site, so it stays wired through the kernel and servers without affecting
benchmark numbers.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, TextIO, Union


class TraceRecord(NamedTuple):
    """A point event (the legacy record shape)."""

    time: float
    subsystem: str
    message: str


@dataclass
class Span:
    """One completed (or still-open) begin/end interval."""

    subsystem: str
    name: str
    start: float
    end: Optional[float] = None
    depth: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)
    #: who opened the span -- a simulated process (or any hashable
    #: token), or None for spans begun outside process context.  Depth
    #: counts nesting *within* one track, so spans from concurrent
    #: processes never inflate each other's depth.  SMP kernels track by
    #: ``(process, cpu)`` so a migrated process's spans nest per CPU.
    track: Optional[object] = None
    #: index of the simulated CPU executing the span (None when the
    #: kernel has a single implicit CPU)
    cpu: Optional[int] = None

    @property
    def time(self) -> float:
        """Alias so spans sort/format alongside point events."""
        return self.start

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def message(self) -> str:
        """Human-readable one-liner (keeps ``records()`` uniform)."""
        extras = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        dur = "" if self.duration is None else f" [{self.duration * 1e6:.1f}us]"
        return f"{self.name}{dur}{(' ' + extras) if extras else ''}"


Record = Union[TraceRecord, Span]


class SpanTracer:
    """Bounded ring of point events and spans with drop accounting."""

    def __init__(self, enabled: bool = False, capacity: int = 10000):
        self.enabled = enabled
        self.capacity = capacity
        self._ring: Deque[Record] = deque(maxlen=capacity)
        #: one open-span stack per track (``None`` = trackless callers)
        self._stacks: Dict[object, List[Span]] = {}
        self.dropped = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _append(self, record: Record) -> None:
        if len(self._ring) >= self.capacity:
            self.dropped += 1
        self._ring.append(record)

    def trace(self, now: float, subsystem: str, message: str) -> None:
        """Record a point event (the legacy API)."""
        if self.enabled:
            self._append(TraceRecord(now, subsystem, message))

    def begin(self, now: float, subsystem: str, name: str, *,
              track: Optional[object] = None, cpu: Optional[int] = None,
              **attrs: object) -> Optional[Span]:
        """Open a nested span; returns None when tracing is disabled.

        ``track`` identifies the (simulated) process opening the span;
        each track nests independently, so two concurrent processes'
        spans carry their own depths instead of interleaving on one
        global counter.  ``cpu`` records which simulated CPU executed
        the span (SMP kernels pass it; uniprocessor spans leave None).
        """
        if not self.enabled:
            return None
        stack = self._stacks.setdefault(track, [])
        span = Span(subsystem, name, now, depth=len(stack), attrs=attrs,
                    track=track, cpu=cpu)
        stack.append(span)
        return span

    def end(self, now: float, span: Optional[Span], **attrs: object) -> None:
        """Close ``span`` (a no-op for the None a disabled begin returns)."""
        if span is None:
            return
        span.end = now
        if attrs:
            span.attrs.update(attrs)
        # spans normally close LIFO within their track; tolerate
        # out-of-order ends
        stack = self._stacks.get(span.track)
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                try:
                    stack.remove(span)
                except ValueError:
                    pass
            if not stack:
                del self._stacks[span.track]
        self._append(span)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(self, subsystem: Optional[str] = None) -> List[Record]:
        if subsystem is None:
            return list(self._ring)
        return [r for r in self._ring if r.subsystem == subsystem]

    def spans(self, subsystem: Optional[str] = None) -> List[Span]:
        """Completed spans only, optionally filtered by subsystem."""
        return [r for r in self.records(subsystem) if isinstance(r, Span)]

    @property
    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (per track, innermost last)."""
        return [span for stack in self._stacks.values() for span in stack]

    def clear(self) -> None:
        self._ring.clear()
        self._stacks.clear()
        self.dropped = 0

    def dump(self) -> str:
        lines = []
        for r in self._ring:
            indent = "  " * getattr(r, "depth", 0)
            lines.append(
                f"[{r.time:12.6f}] {r.subsystem:12s} {indent}{r.message}")
        if self.dropped:
            lines.append(f"... {self.dropped} older record(s) dropped "
                         f"(ring capacity {self.capacity})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_jsonl(self, out: Union[str, TextIO]) -> int:
        """Write every record as one JSON object per line.

        ``out`` is a path or a writable file object.  Returns the number
        of records written (excluding the leading meta line).
        """
        close = False
        if isinstance(out, str):
            out = open(out, "w", encoding="utf-8")
            close = True
        try:
            out.write(json.dumps({
                "type": "meta", "records": len(self._ring),
                "dropped": self.dropped, "capacity": self.capacity,
            }) + "\n")
            for r in self._ring:
                if isinstance(r, Span):
                    # SMP kernels track spans by (process, cpu); name
                    # the process and let "cpu" carry the CPU index
                    track = r.track
                    if isinstance(track, tuple) and track:
                        track = track[0]
                    out.write(json.dumps({
                        "type": "span", "subsystem": r.subsystem,
                        "name": r.name, "start": r.start, "end": r.end,
                        "depth": r.depth,
                        "track": (None if track is None
                                  else getattr(track, "name",
                                               repr(track))),
                        "cpu": r.cpu,
                        "attrs": {k: repr(v) if not isinstance(
                            v, (int, float, str, bool, type(None))) else v
                            for k, v in r.attrs.items()},
                    }) + "\n")
                else:
                    out.write(json.dumps({
                        "type": "event", "time": r.time,
                        "subsystem": r.subsystem, "message": r.message,
                    }) + "\n")
            return len(self._ring)
        finally:
            if close:
                out.close()


#: Shared no-op tracer for components created without an explicit one.
NULL_TRACER = SpanTracer(enabled=False, capacity=1)
