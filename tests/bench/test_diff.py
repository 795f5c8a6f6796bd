"""Tests for the attributed artifact diff (repro diff)."""

from repro.bench.diffing import (
    artifact_kind,
    flatten_numeric,
    gate_findings,
    render_diff,
)


def _bench_entry(label, avg, p99, cpu, profile_rows=None, pathologies=None):
    entry = {
        "label": label,
        "reply_rate": {"avg": avg},
        "error_percent": 0.0,
        "latency_percentiles": {"p99": p99},
        "cpu_utilization": cpu,
    }
    if profile_rows is not None:
        entry["profile"] = {"total_cpu_seconds": 1.0, "rows": profile_rows}
    if pathologies is not None:
        entry["pathologies"] = pathologies
    return entry


def _bench(fingerprint, entries):
    return {"artifact_version": 3, "fingerprint": fingerprint,
            "points": entries}


def _calibration(fitted, residual=0.05, measured=None, backend="live-epoll"):
    return {"calibration_version": 1, "backend": backend,
            "fitted_terms_us": fitted,
            "relative_abs_residual": residual,
            "measured_us_per_call": measured or {}}


def test_artifact_kind_by_shape():
    assert artifact_kind({"points": []}) == "bench"
    assert artifact_kind({"cells": []}) == "capacity"
    assert artifact_kind({"fitted_terms_us": {}}) == "calibration"
    assert artifact_kind({"figures": []}) == "unknown"


def test_flatten_numeric_names_backends_and_skips_bools():
    block = {"causal": {"counters": {"waits": 4}},
             "backends": [{"name": "poll", "waits": 4, "ok": True}],
             "label": "text"}
    flat = flatten_numeric(block)
    assert flat == {"causal.counters.waits": 4.0,
                    "backends.poll.waits": 4.0}


def test_identical_artifacts_diff_clean():
    entry = _bench_entry("thttpd@150/1", 150.0, 2.0, 0.5)
    text = render_diff(_bench("abc", [entry]), _bench("abc", [dict(entry)]))
    assert "measure identically" in text
    assert "note:" not in text


def test_mismatched_kinds_degrade_to_shared_key_diff():
    # a schema mismatch warns and diffs what it can, never refuses
    old = {"points": [], "artifact_version": 3, "total": 5.0}
    new = {"cells": [], "artifact_version": 1, "total": 8.0}
    text = render_diff(old, new)
    assert not text.startswith("cannot diff")
    assert "warning: artifact schemas differ" in text
    assert "'bench' v3" in text and "'capacity' v1" in text
    assert "total  +3" in text


def test_fallback_diff_only_compares_shared_keys():
    old = {"points": [], "only_old": 1.0, "shared": 2.0}
    new = {"cells": [], "only_new": 9.0, "shared": 2.0}
    text = render_diff(old, new)
    assert "only_old" not in text and "only_new" not in text
    assert "all 1 shared numeric leaves are identical" in text


def test_fallback_diff_with_nothing_shared():
    text = render_diff({"points": [], "a": 1.0}, {"cells": [], "b": 2.0})
    assert "no shared numeric keys to compare" in text


def test_fallback_diff_excludes_host_keys():
    old = {"points": [], "created_unix": 1.0, "wall_clock_s": 4.0}
    new = {"cells": [], "created_unix": 99.0, "wall_clock_s": 9.0}
    text = render_diff(old, new)
    assert "created_unix" not in text and "wall_clock_s" not in text


def test_bench_version_mismatch_warns_but_diffs():
    old = _bench("f", [_bench_entry("t@150/1", 150.0, 2.0, 0.5)])
    new = _bench("f", [_bench_entry("t@150/1", 120.0, 2.0, 0.5)])
    old["artifact_version"] = 2
    text = render_diff(old, new)
    assert "warning: artifact versions differ (2 -> 3)" in text
    assert "replies/s avg:  150.0 -> 120.0" in text


def test_calibration_artifacts_diff_term_by_term():
    old = _calibration({"syscall_entry": 2.0, "accept_op": 10.0},
                       residual=0.05,
                       measured={"accept": 15.0, "read": 3.0})
    new = _calibration({"syscall_entry": 4.0, "accept_op": 10.0},
                       residual=0.08,
                       measured={"accept": 18.0, "read": 3.0})
    text = render_diff(old, new, old_name="A", new_name="B")
    assert text.startswith("diff (calibration): A -> B")
    assert "fitted syscall_entry us:  2.0000 -> 4.0000" in text
    assert "accept_op" not in text  # unchanged terms never print
    assert "relative |residual|:  0.050000 -> 0.080000" in text
    assert "measured us/call: accept  +3" in text


def test_calibration_diff_notes_backend_mismatch():
    old = _calibration({"accept_op": 10.0}, backend="live-epoll")
    new = _calibration({"accept_op": 10.0}, backend="live-select")
    text = render_diff(old, new)
    assert "different backends (live-epoll -> live-select)" in text
    assert "identical" in text


def test_headline_deltas_and_fingerprint_warning():
    old = _bench("aaa", [_bench_entry("thttpd@150/1", 150.0, 2.0, 0.50)])
    new = _bench("bbb", [_bench_entry("thttpd@150/1", 120.0, 5.0, 0.65)])
    text = render_diff(old, new)
    assert "fingerprints differ" in text
    assert "replies/s avg:  150.0 -> 120.0  (-30.0, -20.0%)" in text
    assert "p99 ms:  2.00 -> 5.00" in text
    assert "cpu %:  50.0 -> 65.0" in text


def test_profile_movers_attribute_the_delta():
    rows_old = [{"subsystem": "devpoll", "operation": "driver_callback",
                 "cpu_seconds": 0.026, "share": 0.015},
                {"subsystem": "net", "operation": "rx",
                 "cpu_seconds": 0.150, "share": 0.1}]
    rows_new = [{"subsystem": "devpoll", "operation": "driver_callback",
                 "cpu_seconds": 1.291, "share": 0.43},
                {"subsystem": "net", "operation": "rx",
                 "cpu_seconds": 0.150, "share": 0.1}]
    old = _bench("f", [_bench_entry("d@800/500", 800.0, 3.0, 0.6,
                                    profile_rows=rows_old)])
    new = _bench("f", [_bench_entry("d@800/500", 700.0, 9.0, 0.9,
                                    profile_rows=rows_new)])
    text = render_diff(old, new)
    assert "CPU movers" in text
    assert "devpoll.driver_callback  +1265.000 ms" in text
    assert "net.rx" not in text  # unchanged rows never print


def test_pathology_deltas_flattened():
    old_p = {"causal": {"counters": {"spurious_waits": 2}},
             "backends": [{"name": "poll", "waits": 100}]}
    new_p = {"causal": {"counters": {"spurious_waits": 9}},
             "backends": [{"name": "poll", "waits": 100}]}
    old = _bench("f", [_bench_entry("t@150/1", 150.0, 2.0, 0.5,
                                    pathologies=old_p)])
    new = _bench("f", [_bench_entry("t@150/1", 140.0, 2.0, 0.5,
                                    pathologies=new_p)])
    text = render_diff(old, new)
    assert "pathology deltas:" in text
    assert "causal.counters.spurious_waits  +7" in text


def test_one_sided_tracing_is_called_out():
    old = _bench("f", [_bench_entry("t@150/1", 150.0, 2.0, 0.5)])
    new = _bench("f", [_bench_entry("t@150/1", 140.0, 2.0, 0.5,
                                    pathologies={"causal": {}})])
    text = render_diff(old, new)
    assert "only the new side was traced" in text


def test_missing_and_extra_labels_reported():
    old = _bench("f", [_bench_entry("a@1/1", 1.0, 1.0, 0.1)])
    new = _bench("f", [_bench_entry("b@2/2", 2.0, 2.0, 0.2)])
    text = render_diff(old, new)
    assert "only in old: a@1/1" in text
    assert "only in new: b@2/2" in text


def test_capacity_cells_diff_on_knee():
    def cell(capacity, knee_avg, pathologies=None):
        knee = {"reply_rate": {"avg": knee_avg},
                "error_percent": 0.0,
                "latency_percentiles": {"p99": 4.0},
                "cpu_utilization": 0.9,
                "profile_top": [{"subsystem": "poll",
                                 "operation": "driver_callback",
                                 "cpu_seconds": 0.5, "share": 0.4}]}
        if pathologies is not None:
            knee["pathologies"] = pathologies
        return {"label": "select@251", "capacity": capacity,
                "probes": [{}] * 4, "knee": knee}

    old = {"cells": [cell(700.0, 690.0,
                          {"causal": {"counters": {"waits": 50}}})],
           "fingerprint": "cap"}
    new = {"cells": [cell(500.0, 480.0,
                          {"causal": {"counters": {"waits": 80}}})],
           "fingerprint": "cap"}
    text = render_diff(old, new)
    assert "capacity replies/s:  700 -> 500" in text
    assert "causal.counters.waits  +30" in text


def test_failed_point_is_structural_not_numeric():
    old = _bench("f", [_bench_entry("t@150/1", 150.0, 2.0, 0.5)])
    new = _bench("f", [{"label": "t@150/1", "failed": True,
                        "error": "boom"}])
    text = render_diff(old, new)
    assert "failed: False -> True" in text
    assert gate_findings(old, new) == ["t@150/1: failed to run in new"]
    assert "t@150/1: failed to run in new" in text


def test_gate_summary_names_the_point_and_the_metric():
    old = _bench("f", [_bench_entry("thttpd@150/1", 149.0, 2.0, 0.5),
                       _bench_entry("phhttpd@150/1", 149.0, 2.0, 0.5)])
    new = _bench("f", [_bench_entry("thttpd@150/1", 74.5, 2.0, 0.5),
                       _bench_entry("phhttpd@150/1", 140.0, 2.0, 0.5)])
    text = render_diff(old, new)
    assert "replies/s avg:  149.0 -> 74.5  (-74.5, -50.0%)" in text
    assert text.endswith(
        "  1 finding(s) past the gate:\n"
        "    thttpd@150/1: replies/s avg 149.0 -> 74.5 dropped more "
        "than 25%")


def test_only_two_bench_artifacts_are_gated():
    # capacity and calibration diffs, and mismatched kinds, print what
    # moved and never find anything
    def cells(fingerprint, label, knee_avg):
        return {"fingerprint": fingerprint, "cells": [
            {"label": label, "capacity": knee_avg,
             "knee": {"reply_rate": {"avg": knee_avg}}}]}

    pairs = [
        (cells("a", "select@1", 900.0), cells("b", "epoll@1", 100.0)),
        (_calibration({"accept_op": 1.0}), _calibration({"accept_op": 9.0})),
        (_bench("f", [_bench_entry("t@150/1", 150.0, 2.0, 0.5)]),
         cells("f", "t@150/1", 10.0)),
    ]
    for old, new in pairs:
        assert gate_findings(old, new) == []
        assert "past the gate" not in render_diff(old, new)
