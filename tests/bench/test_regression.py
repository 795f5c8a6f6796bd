"""Tests for the BENCH artifact regression gate (``repro diff``)."""

import copy

from repro.bench.diffing import gate_findings, render_diff


def make_artifact(**overrides):
    entry = {
        "label": "thttpd@150/50",
        "reply_rate": {"avg": 149.0},
        "error_percent": 0.0,
        "latency_percentiles": {"p50": 1.5, "p90": 2.2, "p99": 3.0,
                                "p99.9": 3.8},
        "cpu_utilization": 0.2,
    }
    entry.update(overrides)
    return {
        "artifact_version": 1,
        "suite": "smoke",
        "fingerprint": "abc123",
        "points": [entry],
    }


def percentiles(p99):
    return {"p50": 0.1, "p90": 0.15, "p99": p99, "p99.9": p99 + 0.1}


def test_self_compare_is_clean():
    artifact = make_artifact()
    assert gate_findings(artifact, copy.deepcopy(artifact)) == []
    assert "no findings past the gate" in render_diff(
        artifact, copy.deepcopy(artifact))


def test_reply_rate_drop_flags():
    old = make_artifact()
    new = make_artifact(reply_rate={"avg": 149.0 * 0.7})
    assert gate_findings(old, new) == [
        "thttpd@150/50: replies/s avg 149.0 -> 104.3 dropped more than 25%"]
    assert "1 finding(s) past the gate:" in render_diff(old, new)
    # a 20 % drop is inside the gate
    assert gate_findings(old, make_artifact(
        reply_rate={"avg": 149.0 * 0.8})) == []


def test_reply_rate_improvement_never_flags():
    assert gate_findings(
        make_artifact(), make_artifact(reply_rate={"avg": 300.0})) == []


def test_error_percent_gate_is_absolute():
    old = make_artifact()
    assert gate_findings(old, make_artifact(error_percent=2.0)) == []
    findings = gate_findings(old, make_artifact(error_percent=2.5))
    assert findings == ["thttpd@150/50: error % 0.00 -> 2.50 rose more "
                        "than 2 points"]
    # +2.5 points flags whatever the base: the limit is not relative
    assert gate_findings(make_artifact(error_percent=40.0),
                         make_artifact(error_percent=42.5))


def test_latency_p99_gate_relative_with_floor():
    old = make_artifact()
    # +53 % of 3 ms: over the relative limit and over the 0.5 ms floor
    worse = make_artifact(latency_percentiles={"p50": 1.5, "p90": 2.2,
                                               "p99": 4.6, "p99.9": 5.0})
    assert gate_findings(old, worse) == [
        "thttpd@150/50: p99 ms 3.00 -> 4.60 rose more than 50% and 0.5 ms"]
    # +47 %: 1.4 ms more, but under the relative limit
    assert gate_findings(old, make_artifact(
        latency_percentiles=percentiles(4.4))) == []
    # a doubled-but-tiny p99 stays under the absolute floor: no flag
    assert gate_findings(make_artifact(latency_percentiles=percentiles(0.2)),
                         make_artifact(latency_percentiles=percentiles(0.4))
                         ) == []


def test_cpu_gate_is_absolute():
    findings = gate_findings(make_artifact(),
                             make_artifact(cpu_utilization=0.45))
    assert findings == ["thttpd@150/50: cpu % 20.0 -> 45.0 rose more than "
                        "20 points"]
    assert gate_findings(make_artifact(),
                         make_artifact(cpu_utilization=0.35)) == []


def test_fingerprint_mismatch_is_structural():
    old = make_artifact()
    new = make_artifact()
    new["fingerprint"] = "different"
    # the metrics agree; the *config* doesn't
    assert gate_findings(old, new) == [
        "config fingerprints differ (abc123 -> different): the runs "
        "measured different experiments"]


def test_suite_mismatch_is_structural():
    new = make_artifact()
    new["suite"] = "quick"
    assert gate_findings(make_artifact(), new) == [
        "different suites ('smoke' -> 'quick')"]


def test_missing_and_extra_points_are_structural():
    old = make_artifact()
    new = make_artifact()
    new["points"][0] = dict(new["points"][0], label="phhttpd@150/50")
    assert gate_findings(old, new) == ["thttpd@150/50: only in old",
                                       "phhttpd@150/50: only in new"]


def test_missing_percentiles_compare_as_not_available():
    old = make_artifact(latency_percentiles=None)
    new = make_artifact(latency_percentiles=percentiles(30.0))
    # can't gate a metric the baseline lacks
    assert gate_findings(old, new) == []
    assert "p99 ms:  - -> 30.00" in render_diff(old, new)
