"""Measurement helpers mirroring what httperf reports.

The paper's figures plot, per benchmark point:

* average / min / max / standard deviation of the *reply rate*, sampled in
  fixed windows (httperf samples every five seconds; we default to one
  second so short simulated runs still produce several samples);
* the percentage of connections that ended in error;
* median connection time in milliseconds (figure 14).

:class:`WindowedRate` and :class:`SampleSet` provide exactly those
aggregations without any external dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


class WindowedRate:
    """Counts events into fixed-width time windows and reports rates.

    Event timestamps are retained so the measurement span can be fixed
    *after* recording (the harness knows the span only once the load
    generator finishes).  Windows are aligned to the span start and only
    *complete* windows are reported; zero-event windows inside the span
    count as genuine zero-rate samples -- that is precisely the ``Min``
    series collapsing to zero in figures 4-9.  Events landing after the
    span (stragglers finishing during drain) are ignored.
    """

    def __init__(self, window: float = 1.0):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._times: List[float] = []
        self._span_start: Optional[float] = None
        self._span_end: Optional[float] = None

    def record(self, now: float) -> None:
        self._times.append(now)

    @property
    def total(self) -> int:
        return len(self._times)

    def set_span(self, start: float, end: float) -> None:
        """Fix the measurement interval; windows align to ``start``."""
        self._span_start = start
        self._span_end = end

    def rates(self) -> List[float]:
        """Per-complete-window event rates (events / window width)."""
        if self._span_start is not None and self._span_end is not None:
            start, end = self._span_start, self._span_end
        elif self._times:
            start, end = min(self._times), max(self._times) + self.window
        else:
            return []
        nwindows = int((end - start) / self.window)
        if nwindows <= 0:
            return []
        counts = [0] * nwindows
        for t in self._times:
            idx = int((t - start) / self.window)
            if 0 <= idx < nwindows:
                counts[idx] += 1
        return [c / self.window for c in counts]

    def summary(self) -> "RateSummary":
        return RateSummary.from_samples(self.rates())


@dataclass
class RateSummary:
    """avg/min/max/stddev of a rate series -- one figure data point."""

    avg: float = 0.0
    min: float = 0.0
    max: float = 0.0
    stddev: float = 0.0
    samples: int = 0

    @classmethod
    def from_samples(cls, samples: List[float]) -> "RateSummary":
        if not samples:
            return cls()
        n = len(samples)
        avg = sum(samples) / n
        var = sum((s - avg) ** 2 for s in samples) / n
        return cls(avg=avg, min=min(samples), max=max(samples),
                   stddev=math.sqrt(var), samples=n)


class SampleSet:
    """Accumulates scalar samples; computes quantiles with linear interpolation."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def quantile(self, q: float) -> float:
        """q in [0, 1]; linear interpolation between closest ranks."""
        if not self._samples:
            raise ValueError("no samples")
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        self._ensure_sorted()
        samples = self._samples
        if len(samples) == 1:
            return samples[0]
        pos = q * (len(samples) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return samples[lo]
        frac = pos - lo
        return samples[lo] + frac * (samples[hi] - samples[lo])

    def median(self) -> float:
        return self.quantile(0.5)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return sum(self._samples) / len(self._samples)

    def max(self) -> float:
        self._ensure_sorted()
        return self._samples[-1]

    def min(self) -> float:
        self._ensure_sorted()
        return self._samples[0]


@dataclass
class ErrorCounter:
    """httperf's error classes (section 5 / figure 10 of the paper)."""

    fd_unavail: int = 0      # client ran out of file descriptors
    timeouts: int = 0        # connection or reply timed out
    refused: int = 0         # server refused / reset the connection
    other: int = 0

    @property
    def total(self) -> int:
        return self.fd_unavail + self.timeouts + self.refused + self.other

    def percent_of(self, attempts: int) -> float:
        if attempts <= 0:
            return 0.0
        return 100.0 * self.total / attempts

    def as_dict(self) -> Dict[str, int]:
        return {
            "fd_unavail": self.fd_unavail,
            "timeouts": self.timeouts,
            "refused": self.refused,
            "other": self.other,
        }
