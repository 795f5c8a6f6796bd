"""Self-contained HTML capacity report (the scalene single-file pattern).

:func:`render_report` turns one ``CAPACITY_<name>.json`` artifact
(:mod:`repro.bench.capacity`) into a single HTML file with **zero
external references**: every style rule, every chart (server-rendered
inline SVG), every script, and every byte of data is embedded, so the
file can be attached to a PR, mailed, or archived and still render
identically a decade from now.  Rendering is a pure function of the
artifact -- no clocks, no randomness, no environment reads -- so
re-rendering the same artifact reproduces the HTML byte-identically
(the CLI's ``repro report`` contract, pinned by tests).

Report anatomy, top to bottom:

* header + stat tiles (cells, peak knee, probe counts);
* the **capacity heatmap** -- backend rows x inactive-load columns, one
  table per SMP shape, colored on a single-hue sequential ramp;
* **latency percentile curves** -- p50/p90/p99/p99.9 per cell, fixed
  categorical series colors (assigned in slot order, never cycled);
* per-cell **probe convergence** charts (offered vs measured rate, the
  bisection's own history);
* per-cell **timeline** charts from :mod:`repro.obs.timeline`
  (per-interval CPU utilization and open connections);
* the **pathologies** table from :mod:`repro.obs.causal` -- spurious
  wakeups, stale events, rtsig overflows/recoveries, wakeup latency,
  and lock wait at each cell's knee;
* embedded **speedscope-ready folded stacks** per cell, with a
  download button (inline JS, Blob URL -- still no network);
* the full numbers table (the accessibility fallback for every chart).

Charts follow the house data-viz rules: one axis per chart, thin marks,
recessive hairline grid, text in ink tokens (never the series color),
a legend whenever more than one series is plotted, native ``<title>``
tooltips on every mark, and light/dark themes driven by CSS custom
properties over the same markup.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .timeline import utilization_series

#: categorical series slots (light, dark) -- fixed order, never cycled;
#: cells past the eighth render in muted ink and rely on the table view
SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                "#e87ba4", "#008300", "#4a3aa7", "#e34948")
SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
               "#d55181", "#008300", "#9085e9", "#e66767")

#: single-hue sequential ramp for the capacity heatmap (low -> high)
SEQ_RAMP = ("#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
            "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
            "#184f95", "#104281", "#0d366b")
#: ramp index from which white ink is needed over the fill
SEQ_WHITE_INK_FROM = 6

#: status color for an unsustained/failed mark (never a series slot)
STATUS_CRITICAL = "#d03b3b"

_CSS = """
:root {
  color-scheme: light dark;
}
body.report {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --critical: #d03b3b;
"""
_CSS_SERIES_LIGHT = "".join(
    f"  --series-{i + 1}: {hex_};\n" for i, hex_ in enumerate(SERIES_LIGHT))
_CSS_DARK_VALUES = """
  --surface-1: #1a1a19; --page: #0d0d0d;
  --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
  --grid: #2c2c2a; --axis: #383835;
  --border: rgba(255,255,255,0.10);
  --critical: #e66767;
"""
_CSS_SERIES_DARK = "".join(
    f"  --series-{i + 1}: {hex_};\n" for i, hex_ in enumerate(SERIES_DARK))

_CSS_BODY = """
}
@media (prefers-color-scheme: dark) {
  body.report {%DARK%}
}
body.report {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.report h1 { font-size: 22px; margin: 0 0 4px; }
.report h2 { font-size: 16px; margin: 28px 0 8px; }
.report .sub { color: var(--ink-2); margin: 0 0 16px; }
.report .mono { font-family: ui-monospace, Menlo, Consolas, monospace;
                font-size: 12px; }
.report section.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 14px 0;
}
.report .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.report .tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 130px;
}
.report .tile .v { font-size: 24px; font-weight: 600; }
.report .tile .k { color: var(--ink-2); font-size: 12px; }
.report table.heat, .report table.data {
  border-collapse: collapse; font-variant-numeric: tabular-nums;
}
.report table.heat td, .report table.heat th,
.report table.data td, .report table.data th {
  border: 1px solid var(--grid); padding: 6px 12px; text-align: right;
}
.report table.heat th, .report table.data th {
  color: var(--ink-2); font-weight: 500; text-align: right;
}
.report table.heat th.rowhead, .report table.data td.rowhead,
.report table.data th.rowhead { text-align: left; }
.report table.heat td.cell { min-width: 86px; }
.report td.ink-light { color: #ffffff; }
.report td.ink-dark { color: #0b0b0b; }
.report .legend { display: flex; flex-wrap: wrap; gap: 14px;
                  margin: 8px 0 2px; color: var(--ink-2); font-size: 12px; }
.report .legend .swatch { display: inline-block; width: 10px; height: 10px;
                          border-radius: 2px; margin-right: 5px; }
.report .grid2 { display: grid; gap: 16px;
                 grid-template-columns: repeat(auto-fill, minmax(340px, 1fr)); }
.report svg text { fill: var(--ink-muted); font-size: 11px;
                   font-family: system-ui, -apple-system, sans-serif; }
.report svg text.lab { fill: var(--ink-2); }
.report svg .gridline { stroke: var(--grid); stroke-width: 1; }
.report svg .axisline { stroke: var(--axis); stroke-width: 1; }
.report details { margin: 8px 0; }
.report details > summary { cursor: pointer; color: var(--ink-2); }
.report pre.stacks {
  background: var(--page); border: 1px solid var(--grid); border-radius: 6px;
  padding: 10px; max-height: 240px; overflow: auto; font-size: 11px;
}
.report button.dl {
  font: inherit; font-size: 12px; color: var(--ink-1);
  background: var(--surface-1); border: 1px solid var(--axis);
  border-radius: 6px; padding: 3px 10px; cursor: pointer;
}
.report .footer { color: var(--ink-muted); font-size: 12px; margin-top: 24px; }
"""

#: inline JS: folded-stack download buttons (Blob URLs -- no network)
_JS = """
document.addEventListener('click', function (ev) {
  var btn = ev.target.closest('button[data-stacks]');
  if (!btn) return;
  var src = document.getElementById(btn.getAttribute('data-stacks'));
  if (!src) return;
  var blob = new Blob([src.textContent.trim() + '\\n'],
                      {type: 'text/plain'});
  var a = document.createElement('a');
  a.href = URL.createObjectURL(blob);
  a.download = btn.getAttribute('data-name') || 'stacks.folded';
  a.click();
  URL.revokeObjectURL(a.href);
});
"""

PERCENTILE_KEYS = ("p50", "p90", "p99", "p99.9")


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: Optional[float], nd: int = 1) -> str:
    if value is None:
        return "–"
    return f"{value:.{nd}f}"


def _series_class(index: int) -> str:
    """CSS color for the N-th cell: a fixed slot, or muted past eight."""
    return (f"var(--series-{index + 1})" if index < len(SERIES_LIGHT)
            else "var(--ink-muted)")


def _nice_max(value: float) -> float:
    """A round axis maximum >= value (1/2/2.5/5 x 10^k grid)."""
    if value <= 0:
        return 1.0
    import math

    exp = math.floor(math.log10(value))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        candidate = mult * (10.0 ** exp)
        if candidate >= value:
            return candidate
    return 10.0 ** (exp + 1)


# ---------------------------------------------------------------------------
# chart builders (server-rendered SVG)
# ---------------------------------------------------------------------------

def _svg_open(width: int, height: int) -> str:
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" role="img">')


def _y_axis(x0: int, x1: int, y0: int, y1: int, y_max: float,
            fmt_nd: int = 0, ticks: int = 4, unit: str = "") -> List[str]:
    """Hairline horizontal gridlines with muted tick labels."""
    out = []
    for i in range(ticks + 1):
        frac = i / ticks
        y = y0 - frac * (y0 - y1)
        cls = "axisline" if i == 0 else "gridline"
        out.append(f'<line class="{cls}" x1="{x0}" y1="{y:.1f}" '
                   f'x2="{x1}" y2="{y:.1f}"/>')
        label = _fmt(frac * y_max, fmt_nd) + unit
        out.append(f'<text x="{x0 - 6}" y="{y + 3.5:.1f}" '
                   f'text-anchor="end">{label}</text>')
    return out


def _polyline(points: Sequence[Tuple[float, float]], color: str,
              width: float = 2.0) -> str:
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return (f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-linejoin="round" '
            f'stroke-linecap="round"/>')


def _marker(x: float, y: float, color: str, tooltip: str,
            r: float = 4.0) -> str:
    return (f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r}" fill="{color}" '
            f'stroke="var(--surface-1)" stroke-width="2">'
            f'<title>{_esc(tooltip)}</title></circle>')


def _cross(x: float, y: float, color: str, tooltip: str,
           arm: float = 4.0) -> str:
    return (f'<g stroke="{color}" stroke-width="2">'
            f'<line x1="{x - arm:.1f}" y1="{y - arm:.1f}" '
            f'x2="{x + arm:.1f}" y2="{y + arm:.1f}"/>'
            f'<line x1="{x - arm:.1f}" y1="{y + arm:.1f}" '
            f'x2="{x + arm:.1f}" y2="{y - arm:.1f}"/>'
            f'<title>{_esc(tooltip)}</title></g>')


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    """entries: (css color, label)."""
    spans = "".join(
        f'<span><span class="swatch" style="background:{color}"></span>'
        f'{_esc(label)}</span>' for color, label in entries)
    return f'<div class="legend">{spans}</div>'


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def _cells(artifact: Dict[str, Any]) -> List[Dict[str, Any]]:
    return list(artifact.get("cells", []))


def _smp_shape(cell: Dict[str, Any]) -> Tuple[int, int, str]:
    return (cell.get("cpus", 1), cell.get("workers", 1),
            cell.get("dispatch", "hash"))


def _header(artifact: Dict[str, Any]) -> str:
    created = artifact.get("created_unix")
    when = (time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(created))
            if isinstance(created, (int, float)) else "unknown")
    search = artifact.get("search", {})
    sub = (f"run {when} &middot; fingerprint "
           f"<span class=\"mono\">{_esc(artifact.get('fingerprint'))}</span>"
           f" &middot; jobs {_esc(artifact.get('jobs', 1))}"
           f" &middot; probe duration {_esc(search.get('duration'))}s sim"
           f" &middot; tolerance &plusmn;{_esc(search.get('tolerance'))}"
           " replies/s")
    return (f"<h1>Capacity report &mdash; "
            f"{_esc(artifact.get('name', 'matrix'))}</h1>"
            f"<p class=\"sub\">{sub}</p>")


def _tiles(artifact: Dict[str, Any]) -> str:
    cells = _cells(artifact)
    capacities = [c.get("capacity") or 0.0 for c in cells]
    peak = max(capacities, default=0.0)
    peak_label = ""
    for cell in cells:
        if (cell.get("capacity") or 0.0) == peak and peak > 0:
            peak_label = cell["label"]
            break
    probes = sum(c.get("probes_executed", len(c.get("probes", [])))
                 for c in cells)
    tiles = [
        (f"{len(cells)}", "matrix cells"),
        (f"{len(artifact.get('backends', []))}", "backends"),
        (f"{peak:.0f}", "peak knee (replies/s)"
         + (f" — {peak_label}" if peak_label else "")),
        (f"{probes}", "probes run"),
    ]
    body = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>' for v, k in tiles)
    return f'<div class="tiles">{body}</div>'


def _heatmap(artifact: Dict[str, Any]) -> str:
    cells = _cells(artifact)
    if not cells:
        return ""
    peak = max((c.get("capacity") or 0.0 for c in cells), default=0.0)
    shapes = sorted({_smp_shape(c) for c in cells})
    inactive = sorted({c["inactive"] for c in cells})
    backends = []
    for cell in cells:  # first-seen order, stable
        if cell["backend"] not in backends:
            backends.append(cell["backend"])
    by_key = {(c["backend"], c["inactive"], _smp_shape(c)): c for c in cells}
    out = ["<h2>Capacity heatmap</h2>",
           '<p class="sub">Peak sustainable replies/s per '
           "backend &times; inactive-connection load. Darker is higher; "
           "&empty; marks a cell unsustainable even at the search floor."
           "</p>"]
    for shape in shapes:
        cpus, workers, dispatch = shape
        if len(shapes) > 1 or (cpus, workers) != (1, 1):
            out.append(f"<h3>{cpus} CPU(s) &times; {workers} worker(s), "
                       f"{_esc(dispatch)} dispatch</h3>")
        rows = ['<table class="heat"><thead><tr>'
                '<th class="rowhead">backend</th>'
                + "".join(f"<th>{n} inactive</th>" for n in inactive)
                + "</tr></thead><tbody>"]
        for backend in backends:
            tds = [f'<th class="rowhead">{_esc(backend)}</th>']
            for n in inactive:
                cell = by_key.get((backend, n, shape))
                tds.append(_heat_td(cell, peak))
            rows.append("<tr>" + "".join(tds) + "</tr>")
        rows.append("</tbody></table>")
        out.append("".join(rows))
    return "".join(out)


def _heat_td(cell: Optional[Dict[str, Any]], peak: float) -> str:
    if cell is None:
        return '<td class="cell">&mdash;</td>'
    capacity = cell.get("capacity") or 0.0
    if capacity <= 0:
        title = f"{cell['label']}: unsustainable at the search floor"
        return (f'<td class="cell" title="{_esc(title)}">&empty;</td>')
    frac = capacity / peak if peak > 0 else 0.0
    idx = min(len(SEQ_RAMP) - 1, int(frac * (len(SEQ_RAMP) - 1) + 0.5))
    ink = "ink-light" if idx >= SEQ_WHITE_INK_FROM else "ink-dark"
    note = " (range exhausted)" if cell.get("range_exhausted") else ""
    title = (f"{cell['label']}: ~{capacity:.0f} replies/s over "
             f"{len(cell.get('probes', []))} probes{note}")
    star = "&ge;" if cell.get("range_exhausted") else ""
    return (f'<td class="cell {ink}" style="background:{SEQ_RAMP[idx]}" '
            f'title="{_esc(title)}">{star}{capacity:.0f}</td>')


def _latency_chart(artifact: Dict[str, Any]) -> str:
    cells = [c for c in _cells(artifact)
             if (c.get("knee") or {}).get("latency_percentiles")]
    if not cells:
        return ""
    width, height = 720, 280
    x0, x1, y0, y1 = 64, width - 16, height - 36, 16
    y_max = _nice_max(max(
        c["knee"]["latency_percentiles"][k]
        for c in cells for k in PERCENTILE_KEYS))
    parts = [_svg_open(width, height)]
    parts += _y_axis(x0, x1, y0, y1, y_max, fmt_nd=1)
    xs = [x0 + (x1 - x0) * i / (len(PERCENTILE_KEYS) - 1)
          for i in range(len(PERCENTILE_KEYS))]
    for x, key in zip(xs, PERCENTILE_KEYS):
        parts.append(f'<text class="lab" x="{x:.1f}" y="{y0 + 18}" '
                     f'text-anchor="middle">{key}</text>')
    legend = []
    for index, cell in enumerate(cells):
        color = _series_class(index)
        pct = cell["knee"]["latency_percentiles"]
        pts = [(x, y0 - (min(pct[k], y_max) / y_max) * (y0 - y1))
               for x, k in zip(xs, PERCENTILE_KEYS)]
        parts.append(_polyline(pts, color))
        for (x, y), k in zip(pts, PERCENTILE_KEYS):
            parts.append(_marker(
                x, y, color,
                f"{cell['label']} {k}: {pct[k]:.2f} ms at knee "
                f"~{cell.get('capacity', 0):.0f}/s"))
        legend.append((color, cell["label"]))
    parts.append("</svg>")
    return ("<h2>Latency percentiles at the knee</h2>"
            '<p class="sub">Client-side connection time (ms) at each '
            "cell&rsquo;s peak sustainable rate.</p>"
            + "".join(parts) + _legend(legend))


def _probe_charts(artifact: Dict[str, Any]) -> str:
    cells = [c for c in _cells(artifact) if c.get("probes")]
    if not cells:
        return ""
    blocks = []
    for index, cell in enumerate(cells):
        blocks.append(_one_probe_chart(cell, _series_class(index)))
    return ("<h2>Probe convergence</h2>"
            '<p class="sub">Every bisection probe: offered rate vs '
            "measured reply rate. The dashed diagonal is perfect "
            "sustainment; &times; marks an unsustained probe; the "
            "vertical line is the knee.</p>"
            + _legend([("var(--ink-2)", "sustained probe"),
                       ("var(--critical)", "unsustained probe")])
            + '<div class="grid2">' + "".join(blocks) + "</div>")


def _one_probe_chart(cell: Dict[str, Any], color: str) -> str:
    width, height = 340, 200
    x0, x1, y0, y1 = 52, width - 12, height - 30, 26
    probes = cell["probes"]
    rates = [p["rate"] for p in probes]
    max_rate = _nice_max(max(rates))
    y_max = _nice_max(max([p.get("reply_avg", 0.0) or 0.0
                           for p in probes] + [max_rate * 0.001]))

    def sx(rate: float) -> float:
        return x0 + (rate / max_rate) * (x1 - x0)

    def sy(value: float) -> float:
        return y0 - (min(value, y_max) / y_max) * (y0 - y1)

    parts = [_svg_open(width, height),
             f'<text class="lab" x="{x0}" y="14">{_esc(cell["label"])}'
             "</text>"]
    parts += _y_axis(x0, x1, y0, y1, y_max, ticks=3)
    for frac in (0.0, 0.5, 1.0):
        x = x0 + frac * (x1 - x0)
        parts.append(f'<text x="{x:.1f}" y="{y0 + 16}" '
                     f'text-anchor="middle">{frac * max_rate:.0f}</text>')
    diag_end = min(max_rate, y_max)
    parts.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" '
                 f'x2="{sx(diag_end):.1f}" y2="{sy(diag_end):.1f}" '
                 'stroke="var(--axis)" stroke-width="1" '
                 'stroke-dasharray="4 3"/>')
    capacity = cell.get("capacity") or 0.0
    if capacity > 0:
        parts.append(f'<line x1="{sx(capacity):.1f}" y1="{y0}" '
                     f'x2="{sx(capacity):.1f}" y2="{y1}" '
                     f'stroke="{color}" stroke-width="1" '
                     'stroke-dasharray="2 3"/>')
    for n, probe in enumerate(probes, start=1):
        measured = probe.get("reply_avg", 0.0) or 0.0
        spec = " (speculative)" if probe.get("speculative") else ""
        if probe.get("failed"):
            tip = (f"probe {n}{spec}: {probe['rate']:.0f}/s offered, "
                   f"FAILED: {probe.get('error', '?')}")
            parts.append(_cross(sx(probe["rate"]), sy(0.0),
                                "var(--critical)", tip))
        elif probe["sustained"]:
            tip = (f"probe {n}{spec}: {probe['rate']:.0f}/s offered, "
                   f"{measured:.1f}/s measured, sustained")
            parts.append(_marker(sx(probe["rate"]), sy(measured), color, tip))
        else:
            tip = (f"probe {n}{spec}: {probe['rate']:.0f}/s offered, "
                   f"{measured:.1f}/s measured, not sustained")
            parts.append(_cross(sx(probe["rate"]), sy(measured),
                                "var(--critical)", tip))
    parts.append("</svg>")
    return "".join(parts)


def _timeline_charts(artifact: Dict[str, Any]) -> str:
    cells = [c for c in _cells(artifact)
             if (c.get("knee") or {}).get("timeline", {})
             and (c["knee"]["timeline"] or {}).get("samples")]
    if not cells:
        return ""
    blocks = []
    for index, cell in enumerate(cells):
        color = _series_class(index)
        timeline = cell["knee"]["timeline"]
        blocks.append(_one_timeline_chart(cell, timeline, color))
    return ("<h2>Timelines at the knee</h2>"
            '<p class="sub">Sampled every '
            f"{_esc(artifact.get('search', {}).get('timeline'))}s of "
            "simulated time during the knee verification run: "
            "per-interval CPU utilization (one line per simulated CPU) "
            "and open TCP connections.</p>"
            + '<div class="grid2">' + "".join(blocks) + "</div>")


def _one_timeline_chart(cell: Dict[str, Any], timeline: Dict[str, Any],
                        color: str) -> str:
    width, height = 340, 220
    x0, x1 = 52, width - 12
    uy0, uy1 = 108, 26          # utilization pane
    cy0, cy1 = height - 26, 128  # connections pane
    samples = timeline["samples"]
    utilization = utilization_series(timeline)
    t_end = max(samples[-1]["t"], 1e-9)

    def sx(t: float) -> float:
        return x0 + (t / t_end) * (x1 - x0)

    parts = [_svg_open(width, height),
             f'<text class="lab" x="{x0}" y="14">{_esc(cell["label"])}'
             f" &mdash; cpu utilization / open connections</text>"]
    parts += _y_axis(x0, x1, uy0, uy1, 100.0, ticks=2, unit="%")
    num_cpus = timeline.get("cpus", 1)
    for cpu_index in range(num_cpus):
        # CPU 0 in the cell's series color, the rest stepped muted
        line_color = color if cpu_index == 0 else "var(--ink-muted)"
        pts = []
        for i, util in enumerate(utilization):
            mid_t = (samples[i]["t"] + samples[i + 1]["t"]) / 2.0
            value = util[cpu_index] * 100.0
            pts.append((sx(mid_t), uy0 - (value / 100.0) * (uy0 - uy1)))
        if len(pts) >= 2:
            parts.append(_polyline(
                pts, line_color, width=2.0 if cpu_index == 0 else 1.5))
        for (x, y), util in zip(pts, utilization):
            parts.append(_marker(
                x, y, line_color,
                f"cpu{cpu_index}: {util[cpu_index] * 100:.0f}% busy",
                r=2.5))
    conns = [s.get("metrics", {}).get("tcp.open_connections")
             for s in samples]
    conn_pts = [(sx(s["t"]), v) for s, v in zip(samples, conns)
                if v is not None]
    if conn_pts:
        c_max = _nice_max(max(v for _x, v in conn_pts))
        parts += _y_axis(x0, x1, cy0, cy1, c_max, ticks=2)
        pts = [(x, cy0 - (min(v, c_max) / c_max) * (cy0 - cy1))
               for x, v in conn_pts]
        parts.append(_polyline(pts, color))
        for (x, y), (_sx, v) in zip(pts, conn_pts):
            parts.append(_marker(x, y, color,
                                 f"{v:.0f} open connections", r=2.5))
    for frac in (0.0, 0.5, 1.0):
        x = x0 + frac * (x1 - x0)
        parts.append(f'<text x="{x:.1f}" y="{height - 8}" '
                     f'text-anchor="middle">{frac * t_end:.1f}s</text>')
    parts.append("</svg>")
    return "".join(parts)


def _pathology_section(artifact: Dict[str, Any]) -> str:
    cells = [c for c in _cells(artifact)
             if (c.get("knee") or {}).get("pathologies")]
    if not cells:
        return ""
    head = ('<tr><th class="rowhead">cell</th><th>waits</th>'
            "<th>spurious</th><th>reg/wait</th><th>stale</th>"
            "<th>rtsig ovfl</th><th>SIGIO rec</th>"
            "<th>wakeup mean ms</th><th>wakeup max ms</th>"
            "<th>lock wait ms</th></tr>")
    rows = []
    for cell in cells:
        p = cell["knee"]["pathologies"]
        counters = (p.get("causal") or {}).get("counters") or {}
        wakeup = (p.get("causal") or {}).get("wakeup_latency") or {}
        backends = p.get("backends") or []
        waits = sum(b.get("waits", 0) for b in backends)
        spurious = sum(b.get("spurious_wakeups", 0) for b in backends)
        reg_sum = sum(b.get("registered_sum", 0) for b in backends)
        reg_per_wait = (reg_sum / waits) if waits else None
        # a cell with several processes lists one entry per process: the
        # servers share one scoreboard, but each task has its own queue
        server = p.get("server") or {}
        if isinstance(server, list):
            server = server[0]
        stale = server.get("stale_events", 0)
        queues = p.get("signal_queue") or []
        if isinstance(queues, dict):
            queues = [queues]
        overflows = sum(q.get("overflows", 0) for q in queues)
        recoveries = counters.get("sigio_recovery_episodes", 0)
        smp = p.get("smp") or {}
        lock_ms = 1e3 * (smp.get("bkl_wait_s", 0.0)
                         + smp.get("rwlock_wait_rd_s", 0.0)
                         + smp.get("rwlock_wait_wr_s", 0.0))
        rows.append(
            "<tr>"
            f'<td class="rowhead">{_esc(cell["label"])}</td>'
            f"<td>{waits}</td>"
            f"<td>{spurious}</td>"
            f"<td>{_fmt(reg_per_wait, 1)}</td>"
            f"<td>{stale}</td>"
            f"<td>{overflows}</td>"
            f"<td>{recoveries}</td>"
            f"<td>{_fmt(wakeup.get('mean'), 3)}</td>"
            f"<td>{_fmt(wakeup.get('max'), 3)}</td>"
            f"<td>{_fmt(lock_ms, 3)}</td>"
            "</tr>")
    return ("<h2>Pathologies at the knee</h2>"
            '<p class="sub">Backend pathology accounting from the knee '
            "verification run (traced; observation is zero-cost, so "
            "these numbers describe the same run the knee measures): "
            "spurious wakeups, descriptors scanned per wait, stale "
            "post-close events, RT-signal queue overflows with SIGIO "
            "recovery episodes, ready&rarr;harvest wakeup latency, and "
            "lock-contention wait.</p>"
            '<table class="data"><thead>' + head + "</thead><tbody>"
            + "".join(rows) + "</tbody></table>")


def _flame_section(artifact: Dict[str, Any]) -> str:
    cells = [c for c in _cells(artifact)
             if (c.get("knee") or {}).get("folded_stacks")]
    if not cells:
        return ""
    blocks = []
    for index, cell in enumerate(cells):
        stacks = "\n".join(cell["knee"]["folded_stacks"])
        dom_id = f"stacks-{index}"
        fname = f"{cell['label'].replace('/', '_')}.folded"
        blocks.append(
            f"<details><summary>{_esc(cell['label'])} &mdash; "
            f"{len(cell['knee']['folded_stacks'])} folded stack(s) "
            "</summary>"
            f'<p><button class="dl" data-stacks="{dom_id}" '
            f'data-name="{_esc(fname)}">download .folded</button> '
            '<span class="sub">feed to speedscope or flamegraph.pl'
            "</span></p>"
            f'<pre class="stacks" id="{dom_id}">{_esc(stacks)}</pre>'
            "</details>")
    return ("<h2>CPU flame data</h2>"
            '<p class="sub">Per-cell (subsystem, operation) attribution '
            "from the knee verification run, embedded in speedscope's "
            "folded-stack format.</p>" + "".join(blocks))


def _numbers_table(artifact: Dict[str, Any]) -> str:
    cells = _cells(artifact)
    if not cells:
        return ""
    head = ("<tr><th class=\"rowhead\">cell</th><th>capacity</th>"
            "<th>probes</th><th>reply avg</th><th>err %</th>"
            "<th>cpu %</th><th>p50 ms</th><th>p99 ms</th>"
            "<th>top CPU consumer</th></tr>")
    rows = []
    for cell in cells:
        knee = cell.get("knee") or {}
        pct = knee.get("latency_percentiles") or {}
        top = ""
        top_rows = knee.get("profile_top") or []
        if top_rows:
            r = top_rows[0]
            top = (f"{r['subsystem']}.{r['operation']} "
                   f"({100 * r['share']:.0f}%)")
        reply = (knee.get("reply_rate") or {}).get("avg")
        cpu = knee.get("cpu_utilization")
        rows.append(
            "<tr>"
            f'<td class="rowhead">{_esc(cell["label"])}</td>'
            f"<td>{_fmt(cell.get('capacity'), 0)}</td>"
            f"<td>{len(cell.get('probes', []))}</td>"
            f"<td>{_fmt(reply)}</td>"
            f"<td>{_fmt(knee.get('error_percent'), 2)}</td>"
            f"<td>{_fmt(100 * cpu if cpu is not None else None, 0)}</td>"
            f"<td>{_fmt(pct.get('p50'), 2)}</td>"
            f"<td>{_fmt(pct.get('p99'), 2)}</td>"
            f'<td class="rowhead">{_esc(top)}</td>'
            "</tr>")
    return ("<h2>All numbers</h2>"
            '<p class="sub">The table behind every chart above '
            "(screen-reader and copy-paste friendly).</p>"
            '<table class="data"><thead>' + head + "</thead><tbody>"
            + "".join(rows) + "</tbody></table>")


# ---------------------------------------------------------------------------
# the renderer
# ---------------------------------------------------------------------------

def render_report(artifact: Dict[str, Any]) -> str:
    """One self-contained HTML page for a capacity artifact.

    Pure function of ``artifact``: same input, same bytes out.
    """
    css = (_CSS + _CSS_SERIES_LIGHT
           + _CSS_BODY.replace("%DARK%",
                               _CSS_DARK_VALUES + _CSS_SERIES_DARK))
    sections = [
        _header(artifact),
        _tiles(artifact),
        f'<section class="card">{_heatmap(artifact)}</section>',
    ]
    for block in (_latency_chart(artifact), _probe_charts(artifact),
                  _timeline_charts(artifact), _pathology_section(artifact),
                  _flame_section(artifact), _numbers_table(artifact)):
        if block:
            sections.append(f'<section class="card">{block}</section>')
    sections.append(
        '<p class="footer">Self-contained report rendered by '
        "<span class=\"mono\">repro report</span> from "
        f"<span class=\"mono\">CAPACITY_"
        f"{_esc(artifact.get('name', 'matrix'))}.json</span> "
        f"(fingerprint <span class=\"mono\">"
        f"{_esc(artifact.get('fingerprint'))}</span>). "
        "No external assets; charts are inline SVG.</p>")
    title = _esc(f"capacity report — {artifact.get('name', 'matrix')}")
    return ("<!DOCTYPE html>\n"
            '<html lang="en"><head><meta charset="utf-8"/>'
            '<meta name="viewport" '
            'content="width=device-width, initial-scale=1"/>'
            f"<title>{title}</title>"
            f"<style>{css}</style></head>"
            '<body class="report">'
            + "".join(sections)
            + f"<script>{_JS}</script></body></html>\n")


def write_report(artifact: Dict[str, Any], path: str) -> int:
    """Render and write the report; returns the byte count written."""
    text = render_report(artifact)
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
