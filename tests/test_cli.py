"""Tests for the ``python -m repro`` command-line front door."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.__main__ import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Provos & Lever" in out
    assert "thttpd-devpoll" in out
    assert "fig14" in out


def test_default_command_is_info(capsys):
    assert main([]) == 0
    assert "repro" in capsys.readouterr().out


def test_point(capsys):
    assert main(["point", "thttpd-devpoll", "200", "10",
                 "--duration", "1.5"]) == 0
    out = capsys.readouterr().out
    # the header gives the duration run, not a rounded one
    assert out.startswith("thttpd-devpoll @ 200/s, 10 inactive, 1.5s:\n")
    assert "replies/s avg" in out
    assert "errors 0.00%" in out


@pytest.mark.parametrize("unbuffered", [True, False])
def test_point_into_a_closed_pipe_exits_quietly(unbuffered):
    """`repro point ... | head` whose reader has gone: exit 1, and no
    traceback on stderr, whether a print or the last flush meets the
    broken pipe."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "point", "thttpd", "100", "1",
         "--duration", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # Closed before the first line: a reader that closes after one line
    # races the rest of the output into the pipe's buffer.
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err, err.decode()
    assert b"BrokenPipeError" not in err, err.decode()


def test_point_unknown_server_exits_2(capsys):
    assert main(["point", "no-such-server", "100", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one clean line, no traceback
    assert "unknown server" in err
    assert "thttpd-devpoll" in err  # lists the choices


def test_point_trace_and_profile_out(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    profile = tmp_path / "profile.json"
    assert main(["point", "thttpd", "150", "5", "--duration", "1.5",
                 "--trace", str(trace),
                 "--profile-out", str(profile)]) == 0
    out = capsys.readouterr().out
    assert f"trace -> {trace}" in out
    assert "wakeups:" in out and "pathologies:" in out
    assert f"profile -> {profile}" in out
    chrome = json.loads(trace.read_text())
    phases = {e["ph"] for e in chrome["traceEvents"]}
    assert phases <= {"X", "i", "M"} and "X" in phases
    assert chrome["metadata"]["summary"]["counters"]["waits"] > 0
    report = json.loads(profile.read_text())
    assert report["total_cpu_seconds"] > 0
    assert report["rows"]


def test_profile_command(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    assert main(["point", "thttpd-devpoll", "200", "10",
                 "--duration", "1.5", "--profile-out", str(profile)]) == 0
    out = capsys.readouterr().out
    assert "subsystem" in out
    assert "total charged CPU" in out
    assert "devpoll" in out
    # the table prints every row of the written report
    printed = {tuple(line.split()[:2]) for line in out.splitlines()}
    for row in json.loads(profile.read_text())["rows"]:
        assert (row["subsystem"], row["operation"]) in printed


def test_profile_no_hints_requires_devpoll(capsys):
    assert main(["point", "thttpd", "100", "1", "--no-hints"]) == 2
    assert "--no-hints" in capsys.readouterr().err
    # --backend picks the server that runs, so it decides too
    assert main(["point", "thttpd-devpoll", "100", "1", "--no-hints",
                 "--backend", "epoll"]) == 2
    assert "--no-hints" in capsys.readouterr().err


def test_figures_unknown_id(capsys):
    assert main(["figures", "fig99"]) == 1
    assert "unknown figure" in capsys.readouterr().err


def test_figures_single(capsys):
    assert main(["figures", "fig05", "--rates", "150",
                 "--duration", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out
    assert "req rate" in out


def test_flame_command(tmp_path, capsys):
    folded = tmp_path / "stacks.folded"
    assert main(["point", "thttpd-devpoll", "120", "5",
                 "--duration", "1.0", "--flame", str(folded)]) == 0
    out = capsys.readouterr().out
    assert "flame (self time)" in out
    assert "measure" in out
    assert f"folded stacks -> {folded}" in out
    lines = folded.read_text().splitlines()
    assert lines
    for line in lines:
        path, _, weight = line.rpartition(" ")
        assert path and int(weight) > 0


def test_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "smoke" in out
    assert "points" in out


def test_bench_unknown_suite_exits_2(capsys):
    assert main(["bench", "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite" in err
    assert "smoke" in err


def test_bench_and_compare_end_to_end(tmp_path, capsys):
    """The acceptance path: bench writes a schema-versioned artifact
    with latency percentiles + profiler attribution for every point;
    a self-diff exits 0; a degraded reply rate exits 1 and names the
    point and the metric."""
    artifact_path = tmp_path / "BENCH_smoke.json"
    assert main(["bench", "--suite", "smoke",
                 "--out", str(artifact_path)]) == 0
    out = capsys.readouterr().out
    assert "artifact ->" in out
    artifact = json.loads(artifact_path.read_text())
    from repro.bench.suites import ARTIFACT_VERSION
    assert artifact["artifact_version"] == ARTIFACT_VERSION
    assert artifact["suite"] == "smoke"
    assert artifact["jobs"] == 1
    assert artifact["selfperf"]["engine_churn"]["events_per_second"] > 0
    for entry in artifact["points"]:
        pct = entry["latency_percentiles"]
        for key in ("p50", "p90", "p99", "p99.9"):
            assert pct[key] > 0
        assert entry["profile"]["rows"]
        assert entry["sim_events"] > 0
        assert entry["events_per_second"] > 0

    assert main(["diff", str(artifact_path), str(artifact_path)]) == 0
    out = capsys.readouterr().out
    assert "measure identically" in out
    assert "no findings past the gate" in out

    degraded = json.loads(artifact_path.read_text())
    degraded["points"][0]["reply_rate"]["avg"] *= 0.5
    degraded_path = tmp_path / "BENCH_degraded.json"
    degraded_path.write_text(json.dumps(degraded))
    assert main(["diff", str(artifact_path), str(degraded_path)]) == 1
    out = capsys.readouterr().out
    assert "1 finding(s) past the gate:" in out
    assert (f"{degraded['points'][0]['label']}: replies/s avg" in
            out.splitlines()[-1])


def test_compare_unreadable_artifact_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["diff", str(missing), str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"artifact_version": 99, "points": []}))
    assert main(["diff", str(bad), str(bad)]) == 2
    assert "unsupported artifact version 99" in capsys.readouterr().err

    for text in ("{", "[]"):
        bad.write_text(text)
        assert main(["diff", str(bad), str(bad)]) == 2
        assert "cannot read" in capsys.readouterr().err


def test_info_mentions_bench(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "suites" in out
    assert "smoke" in out


def test_point_with_backend(capsys):
    assert main(["point", "thttpd", "150", "5", "--duration", "1.5",
                 "--backend", "epoll"]) == 0
    out = capsys.readouterr().out
    assert "[epoll]" in out
    assert "replies/s avg" in out


def test_point_unknown_backend_exits_2(capsys):
    assert main(["point", "thttpd", "100", "1",
                 "--backend", "kqueue"]) == 2
    err = capsys.readouterr().err
    assert "unknown backend" in err
    assert "epoll" in err  # lists the choices


def test_bench_unknown_backend_exits_2(capsys):
    assert main(["bench", "--suite", "smoke", "--backend", "kqueue"]) == 2
    assert "unknown backend" in capsys.readouterr().err


def test_bench_list_includes_backends_suite(capsys):
    assert main(["bench", "--list"]) == 0
    assert "backends" in capsys.readouterr().out


def test_figures_with_backend(capsys):
    assert main(["figures", "fig05", "--rates", "150", "--duration", "1.5",
                 "--backend", "epoll"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out


def test_point_live_runtime(tmp_path, capsys):
    record_path = tmp_path / "live.json"
    assert main(["point", "thttpd", "40", "2", "--duration", "0.5",
                 "--runtime", "live",
                 "--record-out", str(record_path)]) == 0
    out = capsys.readouterr().out
    assert "(live)" in out
    assert "real syscalls" in out

    import json

    record = json.loads(record_path.read_text())
    assert record["runtime"] == "live"
    assert record["backend"].startswith("live-")
    assert record["replies_ok"] > 0
    assert record["live"]["listen_port"] >= 1024


def test_point_live_rejects_sim_only_flags(tmp_path, capsys):
    for flag in (["--trace", str(tmp_path / "t.json")],
                 ["--flame", str(tmp_path / "f.folded")], ["--no-hints"]):
        assert main(["point", "thttpd", "40", "2", "--runtime", "live",
                     *flag]) == 2
        assert "simulation-only" in capsys.readouterr().err
    assert main(["point", "thttpd", "40", "2", "--runtime", "live",
                 "--cpus", "2"]) == 2
    assert "simulation-only" in capsys.readouterr().err
    assert main(["point", "thttpd", "40", "2", "--runtime", "live",
                 "--backend", "poll"]) == 2
    assert "live-epoll or live-select" in capsys.readouterr().err


def test_point_live_backend_needs_live_runtime(capsys):
    assert main(["point", "thttpd", "40", "2",
                 "--backend", "live-epoll"]) == 2
    assert "needs --runtime live" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # the observations of a point (profile, flame, trace) run simulated
    ["point", "thttpd", "100", "1", "--runtime", "live",
     "--backend", "live-epoll", "--profile-out", os.devnull],
    ["point", "thttpd", "100", "1", "--runtime", "live",
     "--backend", "live-epoll", "--flame", os.devnull],
    ["point", "thttpd", "100", "1", "--runtime", "live",
     "--backend", "live-select", "--trace", os.devnull],
    ["bench", "--suite", "smoke", "--backend", "live-epoll"],
    ["capacity", "--backends", "live-epoll", "--inactive", "0"],
    ["figures", "fig05", "--backend", "live-select"],
])
def test_sim_only_commands_reject_live_backends(argv, capsys):
    assert main(argv) == 2
    assert "simulation-only" in capsys.readouterr().err


def test_calibrate_rejects_underdetermined_grid(capsys):
    assert main(["calibrate", "--rates", "100", "--inactive", "0,64"]) == 2
    assert ">= 4 grid points" in capsys.readouterr().err


def test_calibrate_rejects_bad_grid_values(capsys):
    assert main(["calibrate", "--rates", "100,fast"]) == 2
    assert "bad grid value" in capsys.readouterr().err


def test_calibrate_end_to_end(tmp_path, capsys, monkeypatch):
    # stub the live grid runner; the CLI still drives the real fit,
    # artifact build, and JSON write
    import repro.bench.live as live
    from tests.bench.test_calibrate import _StubResult

    monkeypatch.setattr(
        live, "run_live_point",
        lambda point: _StubResult(point.rate, point.inactive,
                                  point.duration))
    out_path = tmp_path / "CAL.json"
    assert main(["calibrate", "--rates", "100,300", "--inactive", "0,8,64",
                 "--duration", "0.5", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "calibrating against the live kernel" in out
    assert "syscall_entry" in out
    assert f"calibration -> {out_path}" in out

    from repro.bench.calibrate import load_calibration

    artifact = load_calibration(str(out_path))
    assert artifact["grid"] == {"rates": [100.0, 300.0],
                                "inactive": [0, 8, 64]}
