"""Metrics registry: named counts, gauges, and log-bucket histograms.

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
* a histogram is a :class:`~repro.obs.latency.LatencyHistogram`, the
  one histogram type, in its default geometry: ``record`` is O(1) with
  no allocation, cheap enough for per-event use, and a snapshot reports
  its ``summary()`` (count/min/mean/max and p50 through p99.9);
* everything is plain Python with no dependencies, and nothing here
  touches the simulator -- the registry is pure bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List

from .latency import LatencyHistogram


class Gauge:
    """A named value that can move both ways (e.g. open connections)."""

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


class MetricsRegistry:
    """Named counts, plus create-on-first-use gauges and histograms."""

    def __init__(self) -> None:
        #: count name -> value; a name appears once it is first counted
        self.counts: DefaultDict[str, int] = defaultdict(int)
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, metric_type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            if name in self.counts:
                raise ValueError(f"metric {name!r} is already a count")
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, metric_type):
            raise ValueError(f"metric {name!r} already registered as a "
                             f"{type(metric).__name__}")
        return metric

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str) -> LatencyHistogram:
        return self._get_or_create(name, LatencyHistogram, LatencyHistogram)

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
            elif isinstance(metric, LatencyHistogram):
                # a dict even when empty, so samplers can tell it apart
                out[name] = metric.summary() or {"count": 0}
            else:
                out[name] = metric.value
        return out

    def render(self) -> str:
        """One metric per line, histograms summarized."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                mean = value.get("mean", float("nan"))
                lines.append(f"{name}: n={value['count']} mean={mean:.6g}")
            else:
                lines.append(f"{name}: {value}")
        return "\n".join(lines)

