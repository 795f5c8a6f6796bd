"""Timeline sampling: metrics-over-sim-time for one benchmark run.

Every telemetry surface built so far -- the metrics registry, per-CPU
busy accounting, latency histograms -- reports *end-of-run aggregates*.
That is the right shape for the regression gate, but it hides exactly
what a capacity report wants to show: the server warming up, softirq
load pinning CPU 0 while the other CPUs idle, the connection gauge
climbing through the ramp, a backend falling behind mid-run.

:class:`TimelineSampler` closes that gap.  Attached to a testbed it
snapshots, every ``interval`` *simulated* seconds:

* cumulative busy seconds per simulated server CPU (so a reader can
  difference adjacent samples into per-interval utilization);
* the server run-queue depth (grants queued across all CPUs);
* a configurable slice of the server kernel's metrics registry --
  counts and gauges matched by name prefix (by default the TCP
  open-connections gauge and the per-backend ``events.*`` counts,
  whose deltas are "events delivered per interval").

Sampling is pure observation: the tick callback reads state and
schedules the next tick, charges no CPU, and touches no kernel or
network structure, so enabling a timeline cannot change any simulated
measurement.  (It does add calendar entries, so only the wall-clock
telemetry -- ``sim_events`` and friends -- moves.)

``as_dict()`` emits plain JSON data; the capacity artifact embeds it
per matrix cell and the HTML report charts it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: registry names (exact or prefix ending in ".") sampled by default
DEFAULT_SERIES: Tuple[str, ...] = ("tcp.open_connections", "events.")

#: bump when the timeline dict's shape changes
TIMELINE_VERSION = 1


class TimelineSampler:
    """Periodic snapshots of one testbed's server-side state.

    ``start()`` records the baseline sample at the current simulated
    time and schedules a tick every ``interval`` simulated seconds;
    ``stop()`` takes a final sample and cancels the pending tick.  The
    sampler never charges simulated CPU, so measurements are unchanged.
    """

    def __init__(self, testbed, interval: float,
                 series: Sequence[str] = DEFAULT_SERIES,
                 max_samples: int = 10_000):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.testbed = testbed
        self.interval = float(interval)
        self.series = tuple(series)
        self.max_samples = max_samples
        self.samples: List[Dict[str, Any]] = []
        self.start_time: Optional[float] = None
        self.dropped = 0
        self._timer = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.start_time = self.testbed.sim.now
        self._sample()
        self._arm()

    def stop(self) -> None:
        """Take a closing sample and stop ticking.  Idempotent."""
        if not self._running:
            return
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        # close the series at the stop instant unless a tick already
        # sampled this exact time
        if not self.samples or self.samples[-1]["t"] < self._rel_now():
            self._sample()

    # ------------------------------------------------------------------
    def _rel_now(self) -> float:
        return self.testbed.sim.now - (self.start_time or 0.0)

    def _arm(self) -> None:
        self._timer = self.testbed.sim.schedule(self.interval, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self._sample()
        self._arm()

    def _sample(self) -> None:
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
            return
        kernel = self.testbed.server_kernel
        # counts and gauges: the snapshot's plain numbers
        metrics = {name: value
                   for name, value in kernel.metrics.snapshot().items()
                   if _matches(name, self.series)
                   and not isinstance(value, dict)}
        self.samples.append({
            "t": round(self._rel_now(), 9),
            "cpu_busy": [round(cpu.busy_time, 9) for cpu in kernel.cpus],
            "run_queue": sum(cpu.queued for cpu in kernel.cpus),
            "metrics": metrics,
        })

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON dump, ready for the capacity artifact."""
        return {
            "timeline_version": TIMELINE_VERSION,
            "interval": self.interval,
            "start": self.start_time,
            "cpus": self.testbed.server_kernel.num_cpus,
            "dropped": self.dropped,
            "samples": self.samples,
        }


def _matches(name: str, series: Sequence[str]) -> bool:
    for pattern in series:
        if pattern.endswith("."):
            if name.startswith(pattern):
                return True
        elif name == pattern:
            return True
    return False


def utilization_series(timeline: Dict[str, Any]) -> List[List[float]]:
    """Per-CPU utilization per interval from a timeline dict.

    Differences adjacent ``cpu_busy`` samples: result ``[i][c]`` is the
    busy fraction of CPU ``c`` between samples ``i`` and ``i+1`` (one
    entry fewer than ``samples``).  Tolerates the final stop() sample
    landing off the fixed grid by dividing by the actual gap.
    """
    samples = timeline.get("samples", [])
    out: List[List[float]] = []
    for prev, cur in zip(samples, samples[1:]):
        gap = cur["t"] - prev["t"]
        if gap <= 0:
            continue
        out.append([
            max(0.0, min(1.0, (b1 - b0) / gap))
            for b0, b1 in zip(prev["cpu_busy"], cur["cpu_busy"])])
    return out
