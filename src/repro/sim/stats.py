"""Measurement helpers mirroring what httperf reports.

The paper's figures plot, per benchmark point:

* average / min / max / standard deviation of the *reply rate*, sampled in
  fixed windows (httperf samples every five seconds; we use one second so
  short simulated runs still produce several samples);
* the percentage of connections that ended in error;
* median connection time in milliseconds (figure 14).

:func:`window_rates` and :func:`quantile` compute exactly those
aggregations from the client's reply log, without any external
dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

#: reply-rate sampling window, in seconds
RATE_WINDOW = 1.0


def window_rates(times: Iterable[float], start: float,
                 end: float) -> List[float]:
    """Per-window event rates over the span ``[start, end)``.

    Windows are aligned to ``start`` and only *complete* windows are
    reported; zero-event windows inside the span count as genuine
    zero-rate samples -- that is precisely the ``Min`` series collapsing
    to zero in figures 4-9.  Events outside the span (stragglers
    finishing during drain) are ignored.
    """
    nwindows = int((end - start) / RATE_WINDOW)
    if nwindows <= 0:
        return []
    counts = [0] * nwindows
    for t in times:
        idx = int((t - start) / RATE_WINDOW)
        if 0 <= idx < nwindows:
            counts[idx] += 1
    return [c / RATE_WINDOW for c in counts]


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


def quantile(ordered: Sequence[float], q: float) -> float:
    """Value at ``q`` in [0, 1] of the ascending ``ordered`` samples,
    linearly interpolated between the closest ranks."""
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


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
