"""Attributed diffs between two artifacts, and the CI gate (``repro diff``).

Given two BENCH, two CAPACITY or two CALIBRATION artifacts, the diff
aligns their entries by label and reports, per entry:

* the headline measurement deltas (reply rate, error %, p99, CPU);
* the top profiler movers -- which ``(subsystem, operation)`` rows
  gained or lost charged CPU seconds, so a reply-rate delta is
  *attributed* to a layer instead of merely noticed;
* the pathology-counter deltas (:mod:`repro.obs.causal`), when both
  sides carry a ``pathologies`` block -- spurious wakeups, stale
  events, rtsig overflows, lock wait, and friends.

Two BENCH artifacts also go through the gate (:func:`gate_findings`);
``repro diff`` exits 1 on any finding, as Unix ``diff`` does when its
inputs differ.  A finding is one of:

* a shared point whose headline moved past its limit: ``reply_rate.avg``
  dropped by more than :data:`REPLY_RATE_DROP` (relative; a rise never
  flags), ``error_percent`` rose by more than
  :data:`ERROR_PERCENT_RISE` points, the client p99 rose by more than
  :data:`P99_RISE` (relative) *and* :data:`P99_RISE_FLOOR_MS`, or
  ``cpu_utilization`` rose by more than :data:`CPU_RISE`.  A metric
  missing on either side never flags;
* a structural difference: different suites, different config
  fingerprints, a point on one side only, or a point that *failed* to
  run on either side -- the runs measured different experiments (or
  nothing).

Wall-clock fields (:data:`repro.bench.records.WALL_CLOCK_FIELDS`) are
host measurements, not simulation results, and never appear in a diff
or a finding.  Rendering is pure text on plain dicts, so it works on
any artifact version that loads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: the gate's limits on a shared BENCH point (see the module docstring)
REPLY_RATE_DROP = 0.25      # relative drop of the average reply rate
ERROR_PERCENT_RISE = 2.0    # rise of the error percentage, in points
P99_RISE = 0.50             # relative rise of the client p99 ...
P99_RISE_FLOOR_MS = 0.5     # ... that must also exceed this many ms
CPU_RISE = 0.20             # rise of the CPU utilization (0..1)

#: a BENCH point's headline metrics: (printed name, reader, print scale,
#: digits, the gate's test of (old, new), that test in words)
_HEADLINES = (
    ("replies/s avg", lambda e: (e.get("reply_rate") or {}).get("avg"),
     1, 1, lambda a, b: b < a * (1.0 - REPLY_RATE_DROP),
     f"dropped more than {REPLY_RATE_DROP:.0%}"),
    ("error %", lambda e: e.get("error_percent"),
     1, 2, lambda a, b: b > a + ERROR_PERCENT_RISE,
     f"rose more than {ERROR_PERCENT_RISE:g} points"),
    ("p99 ms", lambda e: (e.get("latency_percentiles") or {}).get("p99"),
     1, 2, lambda a, b: (b > a * (1.0 + P99_RISE)
                         and b - a > P99_RISE_FLOOR_MS),
     f"rose more than {P99_RISE:.0%} and {P99_RISE_FLOOR_MS:g} ms"),
    ("cpu %", lambda e: e.get("cpu_utilization"),
     100, 1, lambda a, b: b > a + CPU_RISE,
     f"rose more than {100 * CPU_RISE:g} points"),
)


def artifact_kind(artifact: Dict[str, Any]) -> str:
    """'capacity' | 'calibration' | 'bench' | 'unknown' by shape,
    not filename."""
    if "cells" in artifact:
        return "capacity"
    if "fitted_terms_us" in artifact:
        return "calibration"
    if "points" in artifact:
        return "bench"
    return "unknown"


#: top-level keys that measure the host or the moment, not the
#: experiment -- excluded from the generic fallback diff
_HOST_KEYS = frozenset({"created_unix", "wall_clock_s", "jobs",
                        "selfperf", "host"})


# ---------------------------------------------------------------------------
# flattening + numeric deltas
# ---------------------------------------------------------------------------

def flatten_numeric(obj: Any, prefix: str = "") -> Dict[str, float]:
    """Dotted-key map of every numeric leaf (bools excluded).

    Lists of dicts that carry a ``"name"`` key (the per-backend stats
    blocks) are keyed by that name; other lists by index.
    """
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, dotted))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            label = (value["name"] if isinstance(value, dict)
                     and isinstance(value.get("name"), str) else str(index))
            dotted = f"{prefix}.{label}" if prefix else label
            out.update(flatten_numeric(value, dotted))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def _delta_lines(old: Any, new: Any, top: int, indent: str) -> List[str]:
    """The changed numeric leaves between two blocks, biggest first."""
    a, b = flatten_numeric(old), flatten_numeric(new)
    deltas = [(key, b.get(key, 0.0) - a.get(key, 0.0))
              for key in sorted(set(a) | set(b))]
    deltas = [(k, d) for k, d in deltas if abs(d) > 1e-12]
    deltas.sort(key=lambda kd: -abs(kd[1]))
    lines = [f"{indent}{key}  {delta:+g}" for key, delta in deltas[:top]]
    if len(deltas) > top:
        lines.append(f"{indent}... {len(deltas) - top} more changed "
                     "counter(s)")
    return lines


def _profile_rows(block: Optional[Dict[str, Any]]) -> Dict[Tuple[str, str], float]:
    """(subsystem, operation) -> charged seconds from a profile dict."""
    if not block:
        return {}
    return {(r["subsystem"], r["operation"]): float(r["cpu_seconds"])
            for r in block.get("rows", [])}


def _profile_mover_lines(old_profile: Optional[Dict[str, Any]],
                         new_profile: Optional[Dict[str, Any]],
                         top: int, indent: str) -> List[str]:
    old_rows = _profile_rows(old_profile)
    new_rows = _profile_rows(new_profile)
    if not old_rows and not new_rows:
        return []
    movers = [(key, new_rows.get(key, 0.0) - old_rows.get(key, 0.0))
              for key in sorted(set(old_rows) | set(new_rows))]
    movers = [(k, d) for k, d in movers if abs(d) > 1e-12]
    movers.sort(key=lambda kd: -abs(kd[1]))
    if not movers:
        return []
    lines = [f"{indent}CPU movers (subsystem.operation, delta charged ms):"]
    for (subsystem, operation), delta in movers[:top]:
        lines.append(f"{indent}  {subsystem}.{operation}  "
                     f"{delta * 1e3:+.3f} ms")
    if len(movers) > top:
        lines.append(f"{indent}  ... {len(movers) - top} more row(s) moved")
    return lines


def _metric_lines(pairs: List[Tuple[str, Optional[float], Optional[float],
                                    str, int]],
                  indent: str) -> List[str]:
    """Aligned old -> new lines for the headline measurements."""
    lines = []
    for name, a, b, unit, nd in pairs:
        if a is None and b is None:
            continue
        if a is None or b is None:
            lines.append(f"{indent}{name}:  "
                         f"{'-' if a is None else f'{a:.{nd}f}'} -> "
                         f"{'-' if b is None else f'{b:.{nd}f}'}{unit}")
            continue
        delta = b - a
        if abs(delta) <= 1e-12:
            continue
        rel = f", {100 * delta / a:+.1f}%" if abs(a) > 1e-12 else ""
        lines.append(f"{indent}{name}:  {a:.{nd}f} -> {b:.{nd}f}{unit}  "
                     f"({delta:+.{nd}f}{rel})")
    return lines


# ---------------------------------------------------------------------------
# per-kind entry diffs
# ---------------------------------------------------------------------------

def _diff_bench_entry(old: Dict[str, Any], new: Dict[str, Any],
                      top: int) -> List[str]:
    if old.get("failed") or new.get("failed"):
        return [f"    failed: {bool(old.get('failed'))} -> "
                f"{bool(new.get('failed'))}"]
    lines = _metric_lines([
        (name, _scale(read(old), scale), _scale(read(new), scale), "",
         digits)
        for name, read, scale, digits, _past, _limit in _HEADLINES],
        "    ")
    lines += _profile_mover_lines(old.get("profile"), new.get("profile"),
                                  top, "    ")
    lines += _pathology_lines(old.get("pathologies"),
                              new.get("pathologies"), top, "    ")
    return lines or ["    unchanged"]


def _diff_capacity_cell(old: Dict[str, Any], new: Dict[str, Any],
                        top: int) -> List[str]:
    old_knee = old.get("knee") or {}
    new_knee = new.get("knee") or {}
    old_pct = old_knee.get("latency_percentiles") or {}
    new_pct = new_knee.get("latency_percentiles") or {}
    lines = _metric_lines([
        ("capacity replies/s", old.get("capacity"), new.get("capacity"),
         "", 0),
        ("knee replies/s avg", (old_knee.get("reply_rate") or {}).get("avg"),
         (new_knee.get("reply_rate") or {}).get("avg"), "", 1),
        ("knee error %", old_knee.get("error_percent"),
         new_knee.get("error_percent"), "", 2),
        ("knee p99 ms", old_pct.get("p99"), new_pct.get("p99"), "", 2),
        ("knee cpu %", _scale(old_knee.get("cpu_utilization"), 100),
         _scale(new_knee.get("cpu_utilization"), 100), "", 1),
        ("probes", float(len(old.get("probes", []))),
         float(len(new.get("probes", []))), "", 0),
    ], "    ")
    lines += _profile_mover_lines(
        _top_rows_as_profile(old_knee.get("profile_top")),
        _top_rows_as_profile(new_knee.get("profile_top")), top, "    ")
    lines += _pathology_lines(old_knee.get("pathologies"),
                              new_knee.get("pathologies"), top, "    ")
    return lines or ["    unchanged"]


def _scale(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def _top_rows_as_profile(rows) -> Optional[Dict[str, Any]]:
    # knee records embed only the top profiler rows, not the full report
    return {"rows": rows} if rows else None


def _pathology_lines(old: Optional[Dict[str, Any]],
                     new: Optional[Dict[str, Any]],
                     top: int, indent: str) -> List[str]:
    if old is None and new is None:
        return []
    if old is None or new is None:
        side = "old" if old is None else "new"
        return [f"{indent}pathologies: only the "
                f"{'new' if side == 'old' else 'old'} side was traced "
                "(run both with tracing to diff counters)"]
    body = _delta_lines(old, new, top, indent + "  ")
    if not body:
        return []
    return [f"{indent}pathology deltas:"] + body


def _diff_calibration(old: Dict[str, Any], new: Dict[str, Any],
                      old_name: str, new_name: str,
                      top: int) -> List[str]:
    """Term-by-term diff of two CALIBRATION artifacts."""
    lines = [f"diff (calibration): {old_name} -> {new_name}"]
    if old.get("backend") != new.get("backend"):
        lines.append(f"  note: different backends "
                     f"({old.get('backend')} -> {new.get('backend')})")
    term_pairs = []
    old_terms = old.get("fitted_terms_us") or {}
    new_terms = new.get("fitted_terms_us") or {}
    for name in sorted(set(old_terms) | set(new_terms)):
        term_pairs.append((f"fitted {name} us", old_terms.get(name),
                           new_terms.get(name), "", 4))
    term_pairs.append(("relative |residual|",
                       old.get("relative_abs_residual"),
                       new.get("relative_abs_residual"), "", 6))
    body = _metric_lines(term_pairs, "  ")
    body += _delta_lines(old.get("measured_us_per_call") or {},
                         new.get("measured_us_per_call") or {},
                         top, "  measured us/call: ")
    if not body:
        body = ["  fitted terms and residuals are identical"]
    return lines + body


def _generic_fallback_diff(old: Dict[str, Any], new: Dict[str, Any],
                           old_name: str, new_name: str,
                           top: int) -> str:
    """Schema-mismatch fallback: warn, then diff the shared numeric
    leaves instead of refusing outright."""
    lines = [
        f"warning: artifact schemas differ ({old_name} is "
        f"{artifact_kind(old)!r} v{old.get('artifact_version', '?')}, "
        f"{new_name} is {artifact_kind(new)!r} "
        f"v{new.get('artifact_version', '?')}); "
        "falling back to a generic diff of the shared keys",
    ]
    old_flat = flatten_numeric(
        {k: v for k, v in old.items() if k not in _HOST_KEYS})
    new_flat = flatten_numeric(
        {k: v for k, v in new.items() if k not in _HOST_KEYS})
    shared = sorted(set(old_flat) & set(new_flat))
    deltas = [(key, new_flat[key] - old_flat[key]) for key in shared]
    deltas = [(k, d) for k, d in deltas if abs(d) > 1e-12]
    deltas.sort(key=lambda kd: -abs(kd[1]))
    if deltas:
        lines.append(f"  {len(shared)} shared numeric leaves, "
                     f"{len(deltas)} changed:")
        lines.extend(f"  {key}  {delta:+g}" for key, delta in deltas[:top])
        if len(deltas) > top:
            lines.append(f"  ... {len(deltas) - top} more changed leaf(s)")
    elif shared:
        lines.append(f"  all {len(shared)} shared numeric leaves "
                     "are identical")
    else:
        lines.append("  no shared numeric keys to compare")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the renderer
# ---------------------------------------------------------------------------

def render_diff(old: Dict[str, Any], new: Dict[str, Any],
                old_name: str = "old", new_name: str = "new",
                top: int = 8) -> str:
    """Human-readable attributed diff of two artifacts.

    Same-kind BENCH/CAPACITY/CALIBRATION artifacts get the attributed
    per-entry treatment, and a BENCH diff ends with the gate's findings
    (:func:`gate_findings`); mismatched kinds or schemas degrade to a
    warning plus a generic numeric diff of whatever keys are shared
    (never an error -- new artifact schemas must stay diffable against
    old ones).
    """
    kind = artifact_kind(old)
    if kind == "unknown" or artifact_kind(new) != kind:
        return _generic_fallback_diff(old, new, old_name, new_name, top)
    if kind == "calibration":
        return "\n".join(_diff_calibration(old, new, old_name, new_name,
                                           top))
    lines = [f"diff ({kind}): {old_name} -> {new_name}"]
    old_version = old.get("artifact_version")
    new_version = new.get("artifact_version")
    if old_version != new_version:
        lines.append(f"  warning: artifact versions differ "
                     f"({old_version} -> {new_version}); only keys both "
                     "schemas share are compared meaningfully")
    old_fp, new_fp = old.get("fingerprint"), new.get("fingerprint")
    if old_fp != new_fp:
        lines.append(f"  note: config fingerprints differ "
                     f"({old_fp} -> {new_fp}); deltas below include "
                     "configuration effects, not just code changes")
    key = "points" if kind == "bench" else "cells"
    old_by, new_by = _by_label(old, key), _by_label(new, key)
    only_old = [label for label in old_by if label not in new_by]
    only_new = [label for label in new_by if label not in old_by]
    if only_old:
        lines.append("  only in old: " + ", ".join(map(str, only_old)))
    if only_new:
        lines.append("  only in new: " + ", ".join(map(str, only_new)))
    differ = _diff_bench_entry if kind == "bench" else _diff_capacity_cell
    changed = 0
    for label, old_entry in old_by.items():
        new_entry = new_by.get(label)
        if new_entry is None:
            continue
        body = differ(old_entry, new_entry, top)
        if body == ["    unchanged"]:
            continue
        changed += 1
        lines.append(f"  {label}:")
        lines.extend(body)
    shared = len(set(old_by) & set(new_by))
    if changed == 0 and shared:
        lines.append(f"  all {shared} shared "
                     f"{'point' if kind == 'bench' else 'cell'}(s) "
                     "measure identically")
    if kind == "bench":
        findings = gate_findings(old, new)
        if findings:
            lines.append(f"  {len(findings)} finding(s) past the gate:")
            lines.extend(f"    {finding}" for finding in findings)
        else:
            lines.append("  no findings past the gate")
    return "\n".join(lines)


def gate_findings(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Why two BENCH artifacts differ where it matters, one line per
    finding (see the module docstring); empty when they do not, and for
    any pair of artifacts that are not both BENCH."""
    if artifact_kind(old) != "bench" or artifact_kind(new) != "bench":
        return []
    findings = []
    if old.get("suite") != new.get("suite"):
        findings.append(f"different suites ({old.get('suite')!r} -> "
                        f"{new.get('suite')!r})")
    if old.get("fingerprint") != new.get("fingerprint"):
        findings.append(f"config fingerprints differ "
                        f"({old.get('fingerprint')} -> "
                        f"{new.get('fingerprint')}): the runs measured "
                        "different experiments")
    old_by, new_by = _by_label(old, "points"), _by_label(new, "points")
    findings += [f"{label}: only in old" for label in old_by
                 if label not in new_by]
    findings += [f"{label}: only in new" for label in new_by
                 if label not in old_by]
    for label, a in old_by.items():
        b = new_by.get(label)
        if b is None:
            continue
        failed = [side for side, entry in (("old", a), ("new", b))
                  if entry.get("failed")]
        if failed:
            findings.append(f"{label}: failed to run in "
                            f"{' and '.join(failed)}")
            continue
        for name, read, scale, digits, past, limit in _HEADLINES:
            x, y = read(a), read(b)
            if x is not None and y is not None and past(x, y):
                findings.append(f"{label}: {name} {x * scale:.{digits}f} "
                                f"-> {y * scale:.{digits}f} {limit}")
    return findings


def _by_label(artifact: Dict[str, Any], key: str) -> Dict[Any, Dict[str, Any]]:
    """An artifact's points or cells, by label."""
    return {entry.get("label"): entry for entry in artifact.get(key, [])}
