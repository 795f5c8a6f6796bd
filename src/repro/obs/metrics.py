"""Metrics registry: named counts, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` lives on each simulated host's kernel and
collects every count the kernel, network stack, event backends and
servers keep, so all statistics end up in one queryable, renderable
place.

Design notes:

* counts are plain ints in one name -> int dict,
  :attr:`MetricsRegistry.counts`, which its owners update in place
  (``kernel.counters["sys.read"] += 1``): counting is on the syscall
  hot path, so it costs no call;
* gauges and histograms are created on first use
  (``registry.gauge("tcp.open_connections")``), and requesting an
  existing name with a different kind raises;
* histogram buckets are *fixed at creation* (upper bounds, inclusive:
  a value lands in the first bucket whose bound is >= the value, or in
  the overflow bucket past the last bound) -- observation is O(buckets)
  with no allocation, cheap enough for per-event use;
* everything is plain Python with no dependencies, and nothing here
  touches the simulator -- the registry is pure bookkeeping.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import DefaultDict, Dict, List, Optional, Sequence, Tuple

#: default histogram bounds: exponential microseconds-to-seconds scale,
#: suitable for both CPU charges and connection times (in seconds)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Gauge:
    """A named value that can move both ways (e.g. open connections)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, by: float = 1.0) -> None:
        self.value += by

    def dec(self, by: float = 1.0) -> None:
        self.value -= by

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow.

    Bounds are inclusive upper edges: ``observe(v)`` increments the
    first bucket with ``v <= bound``; values above every bound go to the
    overflow bucket.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """(upper_bound, count) pairs; the overflow bucket's bound is None."""
        out: List[Tuple[Optional[float], int]] = [
            (bound, count) for bound, count in zip(self.bounds, self.counts)]
        out.append((None, self.counts[-1]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean():.3g}>"


class MetricsRegistry:
    """Named counts, plus create-on-first-use gauges and histograms."""

    def __init__(self) -> None:
        #: count name -> value; a name appears once it is first counted
        self.counts: DefaultDict[str, int] = defaultdict(int)
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            if name in self.counts:
                raise ValueError(f"metric {name!r} is already a count")
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {metric.kind}")
        return metric

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets), "histogram")

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted([*self._metrics, *self.counts])

    def get(self, name: str):
        """The gauge or histogram called ``name``, else None."""
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, object]:
        """Plain-data dump of every metric (JSON-serializable)."""
        out: Dict[str, object] = {}
        for name in self.names():
            metric = self._metrics.get(name)
            if metric is None:
                out[name] = self.counts[name]
            elif isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "mean": metric.mean(),
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in metric.bucket_counts()],
                }
            else:
                out[name] = metric.value
        return out

    def render(self) -> str:
        """One metric per line, histograms summarized."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                lines.append(f"{name}: n={value['count']} "
                             f"mean={value['mean']:.6g}")
            else:
                lines.append(f"{name}: {value}")
        return "\n".join(lines)

