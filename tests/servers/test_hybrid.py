"""End-to-end tests for the hybrid server (section 6 future work)."""

import pytest

from repro.http.content import DEFAULT_DOCUMENT_BYTES
from repro.http.messages import get_request, parse_status
from repro.kernel.syscalls import SyscallInterface
from repro.servers.hybrid import HybridConfig, HybridServer
from repro.sim.process import spawn

from .conftest import fetch_documents, run_until_quiet


def make_server(testbed, **cfg):
    server = HybridServer(testbed.server_kernel, config=HybridConfig(**cfg))
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    return server


def test_serves_in_signal_mode(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 5, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 5)
    assert all(results[i] == (200, DEFAULT_DOCUMENT_BYTES) for i in range(5))
    assert server.mode == "signals"
    assert server.mode_switches[0][1] == "signals"


def test_overflow_switches_to_polling_without_handoff(testbed):
    server = make_server(testbed, rtsig_max=4, calm_loops=100000,
                         idle_timeout=30.0)
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    results = fetch_documents(testbed, 12, spacing=0.001)
    run_until_quiet(testbed, horizon=20,
                    condition=lambda: server.mode == "polling"
                    and len(results) == 12)
    assert server.mode == "polling"
    # the crossover kept every connection in place -- no handoff, the
    # kernel interest set already existed
    assert all(results[i][0] == 200 for i in range(12))
    modes = [m for _t, m in server.mode_switches]
    assert modes == ["signals", "polling"]


def test_switches_back_when_load_subsides(testbed):
    """The switch-back phhttpd never implemented (section 6)."""
    server = make_server(testbed, rtsig_max=4, calm_loops=3,
                         low_water_ready=2, idle_timeout=30.0)
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    burst = fetch_documents(testbed, 12, spacing=0.001)
    run_until_quiet(testbed, horizon=30,
                    condition=lambda: len(burst) == 12
                    and server.mode == "signals"
                    and len(server.mode_switches) >= 3)
    modes = [m for _t, m in server.mode_switches]
    assert "polling" in modes
    assert modes[-1] == "signals"
    # and it still serves correctly after coming back
    late = fetch_documents(testbed, 3, spacing=0.01)
    run_until_quiet(testbed, horizon=testbed.sim.now + 10,
                    condition=lambda: len(late) == 3)
    assert all(late[i][0] == 200 for i in range(3))


def test_request_in_the_switch_back_window_is_answered(testbed,
                                                      monkeypatch):
    """The switch back flushes the RT-signal queue.  A request whose
    signal was queued after the last calm ``DP_POLL`` loses it there,
    and is still answered, long before the idle sweep could close it."""
    server = make_server(testbed, rtsig_max=4, calm_loops=3,
                         low_water_ready=2, idle_timeout=30.0)
    sys = SyscallInterface(testbed.client_kernel.new_task("late", fd_limit=64))
    late = {}

    def connect():
        late["fd"] = yield from sys.socket()
        yield from sys.connect(late["fd"], testbed.server_addr, timeout=10.0)

    def request():
        yield from sys.write(late["fd"], get_request("/index.html"))
        reply = b""
        while True:
            data = yield from sys.read(late["fd"], 65536)
            if data == b"":
                break
            reply += data
        late["status"] = parse_status(reply)

    spawn(testbed.sim, connect(), "late-connect")
    run_until_quiet(testbed, horizon=testbed.sim.now + 1,
                    condition=lambda: server.stats.accepts == 1)

    backend = server.backend
    drop_signal_backlog = backend._drop_signal_backlog

    def request_arrives_first():
        if backend.mode == "polling" and "sent" not in late:
            # the switch back: the request lands and queues its signal
            late["sent"] = testbed.sim.now
            spawn(testbed.sim, request(), "late-request")
            yield 0.01
        yield from drop_signal_backlog()

    monkeypatch.setattr(backend, "_drop_signal_backlog",
                        request_arrives_first)
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    burst = fetch_documents(testbed, 12, spacing=0.001)
    run_until_quiet(testbed, horizon=testbed.sim.now + 5,
                    condition=lambda: len(burst) == 12 and "status" in late)
    assert "sent" in late
    assert [m for _t, m in server.mode_switches][-2:] == ["polling",
                                                         "signals"]
    assert late.get("status") == 200


def test_no_events_lost_across_switches(testbed):
    server = make_server(testbed, rtsig_max=8, calm_loops=3,
                         idle_timeout=30.0)
    results = fetch_documents(testbed, 40, spacing=0.001)
    run_until_quiet(testbed, horizon=30, condition=lambda: len(results) == 40)
    assert len(results) == 40
    assert all(results[i][0] == 200 for i in range(40))
    assert server._process.crashed is None


def test_interest_set_maintained_concurrently_in_signal_mode(testbed):
    """Section 6: the kernel interest set must track connections while
    the server runs on signals, so the crossover costs nothing."""
    server = make_server(testbed, idle_timeout=30.0)
    fetch_documents(testbed, 4, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=3,
                    condition=lambda: server.stats.accepts == 4)
    dpf = server.task.fdtable.get(server.dp_fd)
    # updates may lag one loop iteration; nudge the loop
    run_until_quiet(testbed, horizon=testbed.sim.now + 3,
                    condition=lambda: len(dpf.interests) == 5)
    assert len(dpf.interests) == 5  # listener + 4 held connections
    assert server.mode == "signals"


def test_devpoll_mode_serves_and_accepts(testbed):
    """While parked in polling mode (calm never reached), the hybrid
    accepts and serves new connections exactly like the devpoll server."""
    server = make_server(testbed, rtsig_max=4, calm_loops=10**9,
                         idle_timeout=30.0)
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    burst = fetch_documents(testbed, 10, spacing=0.001)
    run_until_quiet(testbed, horizon=20,
                    condition=lambda: server.mode == "polling"
                    and len(burst) == 10)
    assert server.mode == "polling"
    late = fetch_documents(testbed, 5, spacing=0.01)
    run_until_quiet(testbed, horizon=testbed.sim.now + 10,
                    condition=lambda: len(late) == 5)
    assert all(late[i][0] == 200 for i in range(5))
    assert server.mode == "polling"  # calm threshold unreachable


def test_stale_devpoll_events_counted(testbed):
    """POLLNVAL/stale results in polling mode are tallied, not fatal."""
    server = make_server(testbed, rtsig_max=4, calm_loops=10**9,
                         idle_timeout=2.0, timer_interval=0.5)
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    burst = fetch_documents(testbed, 10, spacing=0.001)
    run_until_quiet(testbed, horizon=30,
                    condition=lambda: server.mode == "polling")
    # let idle sweeps churn the held connections while polling
    run_until_quiet(testbed, horizon=testbed.sim.now + 6,
                    condition=lambda: server.stats.idle_closes >= 6)
    assert server._process.crashed is None


def test_idle_sweep_survives_frequent_mode_switches(testbed):
    """Bursts that overflow a 4-deep queue flip the server between modes
    faster than its sweep timer fires; the sweep must still run on time
    and close the idle connections."""
    server = make_server(testbed, rtsig_max=4, calm_loops=3,
                         timer_interval=0.5, idle_timeout=1.0)
    fetch_documents(testbed, 5, partial=True, spacing=0.001)
    start = testbed.sim.now
    while testbed.sim.now < start + 3.0:
        fetch_documents(testbed, 30, spacing=0.0)
        testbed.sim.run(until=testbed.sim.now + 0.15)
    switches = len(server.mode_switches) - 1
    assert switches > 3.0 / 0.5
    assert server.stats.idle_closes >= 5
