"""Terminal rendering for benchmark results: tables and ASCII plots.

Each paper figure is regenerated as (a) a table of the exact series the
figure plots and (b) a rough ASCII rendition of the plot, so a terminal
run can be compared against the paper's graphs directly.  The CPU
breakdown of one point (:func:`cpu_breakdown`, :func:`per_request_cost_us`)
attributes its server CPU so cost-model changes can be validated
quantitatively (DESIGN.md records the calibration targets: ~1000-1100
req/s at load 1 on the 0.4-speed server host).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .harness import PointResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width table with right-aligned numeric columns."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            if math.isnan(value):
                return "-"
            return f"{value:.1f}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_plot(series: Dict[str, List[float]], x: List[float],
               width: int = 64, height: int = 16,
               y_max: Optional[float] = None, y_min: float = 0.0,
               title: str = "") -> str:
    """Plot one or more named series against shared x values.

    Each series gets a marker character; collisions show the later one.
    """
    markers = "*o+x#@%&"
    finite = [v for vals in series.values() for v in vals
              if not math.isnan(v)]
    if not finite or not x:
        return f"{title}\n(no data)"
    top = y_max if y_max is not None else max(finite) * 1.05
    if top <= y_min:
        top = y_min + 1.0
    x_lo, x_hi = min(x), max(x)
    span_x = (x_hi - x_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (name, vals) in enumerate(series.items()):
        marker = markers[si % len(markers)]
        for xv, yv in zip(x, vals):
            if math.isnan(yv):
                continue
            col = int((xv - x_lo) / span_x * (width - 1))
            frac = (min(max(yv, y_min), top) - y_min) / (top - y_min)
            row = height - 1 - int(frac * (height - 1))
            grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        label = ""
        if i == 0:
            label = f"{top:8.0f} "
        elif i == height - 1:
            label = f"{y_min:8.0f} "
        else:
            label = " " * 9
        lines.append(label + "|" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(" " * 10 + f"{x_lo:<10.0f}{'':<{max(0, width - 20)}}{x_hi:>10.0f}")
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}"
        for i, name in enumerate(series))
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def reply_rate_table(rates: List[float], avg: List[float], mins: List[float],
                     maxs: List[float], stddev: List[float],
                     title: str) -> str:
    """The exact table behind each reply-rate figure (figs 4-9, 11-13)."""
    rows = list(zip(rates, avg, mins, maxs, stddev))
    return format_table(
        ["req rate", "avg reply", "min", "max", "stddev"], rows, title)


def attribution_table(report, title: str = "") -> str:
    """Where the server CPU went: one row per (subsystem, operation).

    ``report`` is an :class:`repro.obs.profiler.ProfileReport` (from a
    ``run_point(...)`` with ``profile=True`` or the ``repro point
    --profile-out`` command); rows sum to the run's total charged CPU
    time.  When the run charged any lock-contention wait (the ``smp``
    subsystem's ``bkl_wait`` / ``rwlock_wait_rd`` / ``rwlock_wait_wr``
    rows), a contention top-line follows the table so SMP serialization
    is visible without scanning for the rows.
    """
    text = report.render(title=title or "server CPU attribution")
    contention = {
        r.operation: r.seconds for r in report.rows
        if r.subsystem == "smp" and r.operation in (
            "bkl_wait", "rwlock_wait_rd", "rwlock_wait_wr")}
    if contention:
        waited = sum(contention.values())
        share = waited / report.total if report.total > 0 else 0.0
        parts = ", ".join(
            f"{op} {contention[op] * 1e3:.3f} ms"
            for op in ("bkl_wait", "rwlock_wait_rd", "rwlock_wait_wr")
            if op in contention)
        text += (f"\nlock contention: {waited * 1e3:.3f} ms waited "
                 f"({100 * share:.1f}% of charged CPU) -- {parts}")
    return text


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


def ascii_histogram(values: Sequence[float], bins: int = 12,
                    width: int = 40, title: str = "",
                    unit: str = "") -> str:
    """A quick latency histogram for terminal inspection.

    Used by examples to look *inside* a median (e.g. the bimodal
    connection times of a phhttpd run that melted down mid-way).
    """
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return f"{title}\n(no data)"
    lo, hi = min(values), max(values)
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    counts = [0] * bins
    for v in values:
        idx = min(bins - 1, int((v - lo) / span * bins))
        counts[idx] += 1
    peak = max(counts)
    lines = [title] if title else []
    for i, count in enumerate(counts):
        left = lo + span * i / bins
        right = lo + span * (i + 1) / bins
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(f"{left:10.2f}-{right:10.2f}{unit} |{bar:<{width}} "
                     f"{count}")
    lines.append(f"{'':>21} n={len(values)}")
    return "\n".join(lines)
