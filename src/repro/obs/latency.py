"""Streaming latency quantiles: a log-bucketed (HDR-style) histogram.

The paper's figures report medians, but a median hides exactly the tail
the inactive-connection experiments create: a run can keep a healthy
p50 while its p99.9 blows through the client timeout.  Keeping every
sample exactly (the client's reply log) is fine for one point but wrong
for an always-on telemetry layer, so :class:`LatencyHistogram` keeps
*counts per logarithmic bucket* instead:

* buckets are log-spaced -- ``buckets_per_decade`` bounds per factor of
  ten -- so relative quantile error is bounded by the bucket ratio
  (~7.5 % at the default 32/decade) at any latency scale, exactly the
  trade HDR histograms make;
* recording is O(1) (one ``log10`` plus an increment) and the memory is
  a fixed few hundred ints no matter how many samples arrive;
* ``min``/``max``/``sum``/``count`` are tracked exactly, underflow and
  overflow land in dedicated edge buckets, and two histograms with the
  same geometry can be merged (sharded clients, summed sweeps);
* ``as_dict``/``from_dict`` round-trip through plain JSON;
  ``summary()`` (count/min/mean/max plus p50/p90/p99/p99.9) is how
  percentiles enter point records and the canonical ``BENCH_*.json``
  artifacts.

It is the one histogram type: the client's connection-time
percentiles, each server's service time, the metrics registry's
histograms and the causal ledger's two latencies all use it.  Values
are unit-agnostic; the latency feeds are in milliseconds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

#: default geometry: 1 microsecond .. 100 seconds, in milliseconds
DEFAULT_MIN = 1e-3
DEFAULT_MAX = 1e5
DEFAULT_BUCKETS_PER_DECADE = 32

#: the quantiles every benchmark point reports
REPORT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999))


class LatencyHistogram:
    """Log-spaced bucket histogram with interpolated quantiles."""

    __slots__ = ("min_value", "buckets_per_decade", "num_buckets",
                 "counts", "count", "sum", "_min", "_max")

    def __init__(self, min_value: float = DEFAULT_MIN,
                 max_value: float = DEFAULT_MAX,
                 buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE):
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.min_value = float(min_value)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(max_value / min_value)
        self.num_buckets = int(math.ceil(decades * buckets_per_decade))
        # counts[0] is the underflow bucket (value <= min_value);
        # counts[1..num_buckets] are the log-spaced buckets;
        # counts[num_buckets + 1] is the overflow bucket.
        self.counts: List[int] = [0] * (self.num_buckets + 2)
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, value: float, n: int = 1) -> None:
        """Count ``value`` (``n`` times); O(1), no allocation."""
        if value <= self.min_value:
            idx = 0
        else:
            idx = 1 + int(math.log10(value / self.min_value)
                          * self.buckets_per_decade)
            if idx > self.num_buckets:
                idx = self.num_buckets + 1
        self.counts[idx] += n
        self.count += n
        self.sum += value * n
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram with identical geometry into this one."""
        if (other.min_value != self.min_value
                or other.buckets_per_decade != self.buckets_per_decade
                or other.num_buckets != self.num_buckets):
            raise ValueError("cannot merge histograms with different geometry")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def min(self) -> float:
        if not self.count:
            raise ValueError("no samples")
        return self._min

    def max(self) -> float:
        if not self.count:
            raise ValueError("no samples")
        return self._max

    def mean(self) -> float:
        if not self.count:
            raise ValueError("no samples")
        return self.sum / self.count

    def _bucket_edges(self, idx: int) -> Tuple[float, float]:
        """(lower, upper) value edges of bucket ``idx``, clamped to the
        exactly-tracked min/max so interpolation never leaves the data."""
        if idx == 0:
            lo, hi = 0.0, self.min_value
        elif idx <= self.num_buckets:
            lo = self.min_value * 10.0 ** ((idx - 1) / self.buckets_per_decade)
            hi = self.min_value * 10.0 ** (idx / self.buckets_per_decade)
        else:
            lo = self.min_value * 10.0 ** (self.num_buckets
                                           / self.buckets_per_decade)
            hi = self._max
        return max(lo, self._min), min(hi, self._max)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], linearly interpolated
        within the containing bucket (bounded relative error)."""
        if not self.count:
            raise ValueError("no samples")
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        target = q * self.count
        cum = 0
        for idx, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo, hi = self._bucket_edges(idx)
                if hi <= lo:
                    return lo
                frac = (target - cum) / c
                return lo + frac * (hi - lo)
            cum += c
        return self._max  # pragma: no cover - target <= count always hits

    def percentiles(self) -> Dict[str, float]:
        """The standard report quantiles: p50/p90/p99/p99.9."""
        return {name: self.quantile(q) for name, q in REPORT_QUANTILES}

    def summary(self) -> Optional[Dict[str, float]]:
        """count/min/mean/max plus the report quantiles, or None when
        empty -- the shape archived per benchmark point."""
        if not self.count:
            return None
        out: Dict[str, float] = {
            "count": self.count,
            "min": self._min,
            "mean": self.mean(),
            "max": self._max,
        }
        out.update(self.percentiles())
        return out

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dump; bucket counts are sparse {index: count}."""
        return {
            "min_value": self.min_value,
            "buckets_per_decade": self.buckets_per_decade,
            "num_buckets": self.num_buckets,
            "count": self.count,
            "sum": self.sum,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "counts": {str(i): c for i, c in enumerate(self.counts) if c},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyHistogram":
        bpd = int(data["buckets_per_decade"])
        min_value = float(data["min_value"])
        num_buckets = int(data["num_buckets"])
        hist = cls(min_value=min_value,
                   max_value=min_value * 10.0 ** (num_buckets / bpd),
                   buckets_per_decade=bpd)
        hist.num_buckets = num_buckets
        hist.counts = [0] * (num_buckets + 2)
        for key, c in dict(data["counts"]).items():
            hist.counts[int(key)] = int(c)
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        hist._min = math.inf if data["min"] is None else float(data["min"])
        hist._max = -math.inf if data["max"] is None else float(data["max"])
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "<LatencyHistogram empty>"
        return (f"<LatencyHistogram n={self.count} "
                f"p50={self.quantile(0.5):.3g} p99={self.quantile(0.99):.3g}>")
