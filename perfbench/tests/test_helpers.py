"""Tests of the benchmark's own helpers.

Run from the root of the repository: ``python3 -m pytest perfbench/tests``.
"""

import cProfile
import importlib.util
import json
import os
import pstats
import re
import socket
import threading
import time

import pytest

import checks
import hostspeed
import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- layer folding -----------------------------------------------------

SIM = ("/x/src/repro/sim/engine.py", 10, "run")
NET = ("/x/src/repro/net/tcp.py", 20, "send")
DRIVER = ("/x/perfbench/worker.py", 5, "main")
APPEND = ("~", 0, "<method 'append' of 'list' objects>")


def test_package_of_maps_repro_packages_and_everything_else_to_other():
    assert layers.package_of(SIM) == "sim"
    assert layers.package_of(NET) == "net"
    assert layers.package_of(DRIVER) == "other"
    assert layers.package_of(("/x/src/repro/__main__.py", 1, "f")) == "other"
    assert layers.package_of(APPEND) == "other"


def test_fold_charges_builtins_to_their_callers_and_counts_boundary_calls():
    stats = {
        DRIVER: (1, 1, 0.5, 4.0, {}),
        SIM: (3, 3, 2.0, 3.5, {DRIVER: (3, 3, 2.0, 3.5), SIM: (2, 2, 0.1, 0.2)}),
        NET: (7, 7, 1.0, 1.2, {SIM: (7, 7, 1.0, 1.2)}),
        # append: 0.25 s from sim, 0.5 s from net, 0.05 s with no caller
        APPEND: (9, 9, 0.8, 0.8, {SIM: (4, 4, 0.25, 0.25),
                                  NET: (5, 5, 0.5, 0.5)}),
    }
    out = layers.fold(stats)
    assert out["sim"]["self_s"] == pytest.approx(2.25)
    assert out["net"]["self_s"] == pytest.approx(1.5)
    assert out["other"]["self_s"] == pytest.approx(0.55)
    # recursion inside sim is not a call into sim
    assert out["sim"]["calls"] == 3
    assert out["net"]["calls"] == 7
    total = sum(row["self_s"] for row in out.values())
    assert total == pytest.approx(0.5 + 2.0 + 1.0 + 0.8)


def test_fold_on_a_real_profile_puts_builtin_time_in_the_calling_layer(tmp_path):
    pkg = tmp_path / "repro" / "kernel"
    pkg.mkdir(parents=True)
    source = pkg / "busy.py"
    source.write_text("def work(n):\n"
                      "    out = []\n"
                      "    for i in range(n):\n"
                      "        out.append(sorted((i, 3, 1)))\n"
                      "    return out\n")
    spec = importlib.util.spec_from_file_location("busy", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    prof = cProfile.Profile()
    prof.runcall(lambda: module.work(20000))
    out = layers.fold(pstats.Stats(prof).stats)
    assert out["kernel"]["calls"] == 1
    # sorted() and list.append() dominate and are charged to the kernel
    assert out["kernel"]["self_s"] > 4 * out["other"]["self_s"]


# -- scaled host time --------------------------------------------------

def test_scaled_clock_cancels_a_slow_host_but_not_slower_work(monkeypatch):
    now = [0.0]
    slice_s = [hostspeed.REFERENCE_S]
    monkeypatch.setattr(hostspeed, "calibrate", lambda timer: slice_s[0])
    clock = hostspeed.ScaledClock(lambda: now[0])
    now[0] += 1.0
    assert clock.lap() == pytest.approx(1.0)
    # the host turns twice as slow: the same work takes twice as long
    slice_s[0] *= 2
    now[0] += 1.5  # the lap straddles the change: mean of 1x and 2x
    clock.lap()
    now[0] += 2.0
    assert clock.lap() == pytest.approx(0.5)
    assert clock.raw == pytest.approx(4.5)
    assert clock.scaled == pytest.approx(1.0 + 1.0 + 1.0)


def test_calibration_slice_takes_measurable_time():
    assert hostspeed.calibrate(time.perf_counter) > 0


# -- output checks -----------------------------------------------------

def _record():
    return {"server": "thttpd-devpoll", "seed": 3, "attempts": 10,
            "replies_ok": 8, "errors": {"timeouts": 1, "refused": 1},
            "latency_ms": {"median": 2.5}, "wall_clock_s": 1.25}


def test_digest_ignores_wall_clock_fields_only():
    record = _record()
    pinned = checks.record_digest(record)
    record["wall_clock_s"] = 99.0
    record["sim_events"] = 123
    assert checks.record_digest(record) == pinned
    assert checks.check_sim_record(record, pinned) == []


def test_digest_check_rejects_a_perturbed_record():
    record = _record()
    pinned = checks.record_digest(record)
    record["latency_ms"] = {"median": 2.5000001}
    problems = checks.check_sim_record(record, pinned)
    assert len(problems) == 1 and "digest" in problems[0]


def test_sim_record_check_requires_every_attempt_accounted_for():
    record = _record()
    record["errors"]["timeouts"] = 0
    assert any("attempts" in p for p in checks.check_sim_record(record))
    record = _record()
    record.update(attempts=0, replies_ok=0, errors={})
    assert checks.check_sim_record(record) == ["no successful reply"]


def test_failed_ratio_counts_failures_against_attempts():
    assert checks.failed_ratio(0, 0) == 0.0
    assert checks.failed_ratio(0, 8024) == 0.0
    assert checks.failed_ratio(559, 8024) == pytest.approx(559 / 8024)
    with pytest.raises(ValueError):
        checks.failed_ratio(3, 2)
    with pytest.raises(ValueError):
        checks.failed_ratio(-1, 2)


def test_check_reply_wants_status_200_and_exactly_the_document():
    body = bytes(range(256)) * 24
    head = b"HTTP/1.0 200 OK\r\nContent-Length: 6144\r\n\r\n"
    assert checks.check_reply(head + body, body)
    assert not checks.check_reply(head + body[:-1], body)
    assert not checks.check_reply(head + body[:-1] + b"?", body)
    assert not checks.check_reply(head.replace(b"200 OK", b"404 Not Found")
                                  + body, body)
    assert not checks.check_reply(b"", body)


def test_fetch_counts_a_refused_connection_or_a_wrong_body_as_bad():
    document = b"x" * 6144
    with socket.socket() as unused:
        unused.bind(("127.0.0.1", 0))
        closed = unused.getsockname()
    assert workloads.fetch(closed, b"GET / HTTP/1.0\r\n\r\n", document) is None

    def serve(listener, body):
        conn, _ = listener.accept()
        with conn:
            conn.recv(1024)
            conn.sendall(b"HTTP/1.0 200 OK\r\n\r\n" + body)

    for body, good in ((document, True), (document[:-1] + b"y", False)):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            server = threading.Thread(target=serve, args=(listener, body))
            server.start()
            latency = workloads.fetch(listener.getsockname(),
                                      b"GET / HTTP/1.0\r\n\r\n", document)
            server.join()
        assert (latency is not None) == good


def test_every_pinned_seed_has_a_digest_for_every_simulated_workload():
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        digests = json.load(fh)
    sim = {name for name, spec in run.WORKLOADS.items()
           if isinstance(spec, run.SimWorkload)}
    assert set(digests) == sim
    for name in sim:
        assert set(digests[name]) == {str(s) for s in checks.PINNED_SEEDS}


def test_expectations_flag_a_workload_that_left_its_path():
    counts = {"kernel.rtsig_overflows": 0, "core.callbacks_hinted": 5}
    assert checks.check_expectations(counts, positive=["core.callbacks_hinted"],
                                     zero=["kernel.rtsig_overflows"]) == []
    assert len(checks.check_expectations(
        counts, positive=["kernel.rtsig_overflows"],
        zero=["core.callbacks_hinted"])) == 2


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert checks.percentile(values, 0.5) == 5
    assert checks.percentile(values, 0.9) == 9
    assert checks.percentile(values, 1.0) == 10
    assert checks.percentile([7.0], 0.9) == 7.0


# -- metric names and BENCHMARK.json -----------------------------------

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_every_metric_name_is_well_formed():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert [n for n in names if not METRIC_NAME.fullmatch(n)] == []
    assert len(names) == len(set(names))


def test_benchmark_json_lists_exactly_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == run.PER_LAYER
