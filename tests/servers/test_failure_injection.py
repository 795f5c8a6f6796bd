"""Failure injection: malformed input, fd exhaustion, client aborts.

The paper's workload is hostile in exactly these ways (slow clients that
give up, servers driven into resource exhaustion), so every server must
degrade by counting errors, never by crashing.
"""

import pytest

from repro.http.messages import get_request
from repro.kernel.syscalls import SyscallInterface
from repro.servers.base import ServerConfig
from repro.servers.hybrid import HybridConfig, HybridServer
from repro.servers.phhttpd import PhhttpdConfig, PhhttpdServer
from repro.servers.thttpd import ThttpdServer
from repro.servers.thttpd import DevpollServerConfig, ThttpdDevpollServer
from repro.sim.process import spawn

from .conftest import fetch_documents, run_until_quiet

SERVER_FACTORIES = {
    "thttpd": lambda k: ThttpdServer(k, config=ServerConfig()),
    "thttpd-devpoll": lambda k: ThttpdDevpollServer(
        k, config=DevpollServerConfig()),
    "phhttpd": lambda k: PhhttpdServer(k, config=PhhttpdConfig()),
    "hybrid": lambda k: HybridServer(k, config=HybridConfig()),
}


def start(testbed, kind):
    server = SERVER_FACTORIES[kind](testbed.server_kernel)
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    return server


def send_raw(testbed, payload, close_after=None):
    """Open a connection, send raw bytes, optionally close after a delay."""
    task = testbed.client_kernel.new_task(f"raw{id(payload) % 1000}",
                                          fd_limit=64)
    sys = SyscallInterface(task)
    state = {}

    def body():
        fd = yield from sys.socket()
        yield from sys.connect(fd, testbed.server_addr, timeout=5.0)
        yield from sys.write(fd, payload)
        if close_after is not None:
            yield close_after
            yield from sys.close(fd)
            state["closed"] = True
        else:
            while True:
                data = yield from sys.read(fd, 4096)
                state.setdefault("bytes", 0)
                state["bytes"] = state["bytes"] + len(data)
                if data == b"":
                    break
            yield from sys.close(fd)
            state["done"] = True

    spawn(testbed.sim, body(), "raw")
    return state


@pytest.mark.parametrize("kind", sorted(SERVER_FACTORIES))
def test_malformed_request_is_counted_not_fatal(testbed, kind):
    server = start(testbed, kind)
    state = send_raw(testbed, b"GARBAGE NOISE\r\n\r\n")
    run_until_quiet(testbed, horizon=5,
                    condition=lambda: server.stats.parse_errors == 1)
    assert server.stats.parse_errors == 1
    # server is still alive and serving
    results = fetch_documents(testbed, 1)
    run_until_quiet(testbed, horizon=testbed.sim.now + 5,
                    condition=lambda: 0 in results)
    assert results[0][0] == 200


@pytest.mark.parametrize("kind", sorted(SERVER_FACTORIES))
def test_client_abort_before_response_counted_as_io_error(testbed, kind):
    """An httperf client timing out closes with unread data -> RST; the
    server's write fails and is tallied, not raised."""
    server = start(testbed, kind)
    # send a complete request but vanish immediately: the response hits
    # a closed socket
    state = send_raw(testbed, get_request("/index.html"), close_after=0.0005)
    run_until_quiet(
        testbed, horizon=5,
        condition=lambda: (server.stats.io_errors
                           + server.stats.responses) >= 1)
    # either the RST beat the response (io_error) or the write slipped
    # into the buffer first (response); both are acceptable outcomes,
    # crashing is not.
    assert server._process.crashed is None
    assert server.stats.io_errors + server.stats.responses >= 1


def test_server_fd_exhaustion_counts_accept_failures(testbed):
    server = ThttpdDevpollServer(
        testbed.server_kernel,
        config=DevpollServerConfig(fd_limit=8, idle_timeout=60.0))
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    # listener + /dev/poll fd leave ~6 fds; park 10 partial conns
    fetch_documents(testbed, 10, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=8,
                    condition=lambda: server.stats.accept_failures > 0)
    assert server.stats.accept_failures > 0
    assert server._process.crashed is None


def test_request_head_overflow_closed(testbed):
    server = start(testbed, "thttpd-devpoll")
    state = send_raw(testbed, b"GET /" + b"a" * 9000 + b" HTTP/1.0\r\n\r\n")
    run_until_quiet(testbed, horizon=5,
                    condition=lambda: server.stats.parse_errors >= 1)
    assert server.stats.parse_errors >= 1
    assert len(server.conns) == 0


def test_post_method_accepted_by_parser_404s(testbed):
    server = start(testbed, "thttpd")
    state = send_raw(testbed, b"POST /cgi HTTP/1.0\r\n\r\n")
    run_until_quiet(testbed, horizon=5, condition=lambda: state.get("done"))
    assert state.get("bytes", 0) > 0  # got a (404) response, then EOF


def test_trace_points_record_major_events():
    """With tracing on, the overflow/handoff/sweep story is observable."""
    from repro.bench.testbed import Testbed, TestbedConfig

    testbed = Testbed(TestbedConfig(seed=9, trace=True))
    server = PhhttpdServer(
        testbed.server_kernel,
        config=PhhttpdConfig(rtsig_max=4, idle_timeout=30.0))
    server.stats  # touch
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    results = fetch_documents(testbed, 12, spacing=0.001)
    run_until_quiet(testbed, horizon=20,
                    condition=lambda: server.mode == "polling"
                    and len(results) == 12)
    records = testbed.tracer.records("phhttpd")
    messages = " | ".join(r.message for r in records)
    assert "listening on port 80" in " | ".join(
        r.message for r in testbed.tracer.records())
    assert "overflow" in messages
    assert "took over" in messages
