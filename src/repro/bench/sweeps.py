"""Rate sweeps: one figure = one sweep (or several overlaid).

The paper sweeps the targeted request rate from 500 to 1100 requests per
second at a fixed inactive-connection load (1, 251, or 501) for each
server.  ``PAPER_RATES`` is that x-axis; CI-scale runs use a thinner one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from .harness import BenchmarkPoint, PointResult

#: the x-axis of figures 4-14
PAPER_RATES: Sequence[float] = (500, 600, 700, 800, 900, 1000, 1100)
#: paper's inactive-connection loads
PAPER_LOADS: Sequence[int] = (1, 251, 501)
#: thin sweep for CI / pytest-benchmark
QUICK_RATES: Sequence[float] = (500, 800, 1100)


@dataclass
class SweepResult:
    """All points of one (server, inactive-load) rate sweep."""

    server: str
    inactive: int
    points: List[PointResult]

    def series(self, key: str) -> List[float]:
        """Column across the sweep, e.g. series('avg')."""
        return [p.row()[key] for p in self.points]

    def rates(self) -> List[float]:
        """The sweep's x-axis."""
        return [p.point.rate for p in self.points]


def run_rate_sweep(server: str, inactive: int,
                   rates: Sequence[float] = PAPER_RATES,
                   duration: float = 10.0,
                   seed: int = 0,
                   server_opts: Optional[Dict[str, Any]] = None,
                   base_point: Optional[BenchmarkPoint] = None,
                   jobs: int = 1,
                   on_point: Optional[Callable[[Any], None]] = None
                   ) -> SweepResult:
    """Run the full rate sweep for one (server, inactive-load) pair.

    ``jobs > 1`` fans the points across worker processes (each point is
    a self-contained seeded simulation, so results are byte-identical
    to the serial path).  A point that crashes is kept as a *failed
    placeholder* (NaN measurements, the error in its record) so one bad
    point cannot kill the whole sweep.  ``on_point``
    fires in the parent as each point settles (completion order under
    parallelism).
    """
    # imported here: records/figures also import this module at load time
    from .parallel import failed_point_result, run_points

    template = base_point if base_point is not None else BenchmarkPoint()
    points = [
        replace(
            template,
            server=server,
            rate=float(rate),
            inactive=inactive,
            duration=duration,
            seed=seed,
            server_opts=dict(server_opts or {}),
        )
        for rate in rates
    ]
    outcomes = run_points(points, jobs=jobs, on_result=on_point)
    return SweepResult(
        server=server, inactive=inactive,
        points=[o.result if o.ok else failed_point_result(o)
                for o in outcomes])
