"""Tests for the inactive-connection pool."""

import pytest

from repro.bench.inactive import (
    PARTIAL_FRAGMENTS,
    InactiveConnectionPool,
    InactivePoolConfig,
)
from repro.bench.testbed import Testbed, TestbedConfig
from repro.http.parser import RequestParser
from repro.servers.base import ServerConfig
from repro.servers.thttpd import DevpollServerConfig, ThttpdDevpollServer


@pytest.fixture
def testbed():
    return Testbed(TestbedConfig(seed=5))


def start_server(testbed, **cfg):
    server = ThttpdDevpollServer(testbed.server_kernel,
                                 config=DevpollServerConfig(**cfg))
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    return server


def test_partial_fragments_never_complete_a_request():
    p = RequestParser()
    for fragment in PARTIAL_FRAGMENTS:
        assert p.feed(fragment) is None


def test_pool_establishes_requested_count(testbed):
    server = start_server(testbed, idle_timeout=60.0)
    pool = InactiveConnectionPool(
        testbed, InactivePoolConfig(count=20, ramp_time=0.5))
    pool.start()
    while not pool.all_connected.triggered and testbed.sim.now < 20:
        testbed.sim.run(until=testbed.sim.now + 0.25)
    assert pool.all_connected.triggered
    assert pool.connected == 20
    # the server holds them all as open, request-less connections
    assert len(server.conns) == 20
    assert server.stats.requests == 0


def test_pool_reconnects_after_server_idle_close(testbed):
    """'these clients reopen their connection if the server times them
    out' -- the count stays constant across server sweeps."""
    server = start_server(testbed, idle_timeout=1.0, timer_interval=0.25)
    pool = InactiveConnectionPool(
        testbed, InactivePoolConfig(count=10, ramp_time=0.2))
    pool.start()
    testbed.sim.run(until=8.0)
    assert pool.reconnects >= 10  # at least one full herd cycle
    assert server.stats.idle_closes >= 10
    # and the pool population keeps recovering (some slots are always
    # mid-reconnect with such an aggressive 1 s idle timeout)
    testbed.sim.run(until=9.0)
    assert pool.connected >= 5


def test_pool_stop_halts_reconnection(testbed):
    start_server(testbed, idle_timeout=1.0, timer_interval=0.25)
    pool = InactiveConnectionPool(
        testbed, InactivePoolConfig(count=5, ramp_time=0.1))
    pool.start()
    testbed.sim.run(until=3.0)
    pool.stop()
    reconnects = pool.reconnects
    testbed.sim.run(until=10.0)
    assert pool.reconnects <= reconnects + 5  # in-flight slots may finish


def test_pool_survives_refused_connections(testbed):
    # no server at all: every connect is refused; the pool keeps retrying
    pool = InactiveConnectionPool(
        testbed, InactivePoolConfig(count=3, ramp_time=0.1))
    pool.start()
    testbed.sim.run(until=3.0)
    assert pool.connect_failures > 3
    assert pool.connected == 0


def test_zero_sized_pool_is_immediately_ready(testbed):
    pool = InactiveConnectionPool(testbed, InactivePoolConfig(count=0))
    pool.start()
    testbed.sim.run(until=0.1)
    assert pool.all_connected.triggered
    assert pool.connected == 0
