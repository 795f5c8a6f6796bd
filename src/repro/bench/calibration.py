"""CPU-breakdown tools for one benchmark point.

The reproduction matches the paper's *shapes*, which depend on where each
server's saturation knee falls.  The knee itself is found by the capacity
matrix (:mod:`repro.bench.capacity`); these helpers attribute a point's
CPU so cost-model changes can be validated quantitatively (DESIGN.md
records the calibration targets: ~1000-1100 req/s at load 1 on the
0.4-speed server host).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .harness import PointResult


def _server_busy_by_category(result: PointResult) -> Dict[str, float]:
    """Busy seconds per category summed over *all* simulated server CPUs.

    ``kernel.cpus`` lists the real per-CPU resources on both shapes
    (uniprocessor: the one CPU; SMP: every member of the domain), so
    the sum never depends on which facade ``kernel.cpu`` happens to be.
    """
    merged: Dict[str, float] = {}
    for cpu in result.testbed.server_kernel.cpus:
        for category, seconds in cpu.busy_by_category.items():
            merged[category] = merged.get(category, 0.0) + seconds
    return merged


def cpu_breakdown(result: PointResult, top: int = 12) -> List[Tuple[str, float, float]]:
    """(category, seconds, share-of-busy) rows for one benchmark point.

    On an SMP testbed the rows sum busy time across every simulated
    CPU, so softirq work pinned to CPU 0 and worker syscalls spread
    over CPUs 1..N all land in one machine-wide table.
    """
    by_cat = _server_busy_by_category(result)
    busy = sum(by_cat.values()) or 1.0
    rows = sorted(by_cat.items(), key=lambda kv: -kv[1])[:top]
    return [(cat, secs, secs / busy) for cat, secs in rows]


def per_request_cost_us(result: PointResult) -> Optional[float]:
    """Average server CPU microseconds consumed per successful reply
    (all simulated CPUs summed)."""
    replies = result.httperf.replies_ok
    if replies == 0:
        return None
    busy = sum(_server_busy_by_category(result).values())
    return 1e6 * busy / replies
