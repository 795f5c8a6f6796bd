"""Tests for the select()-based thttpd build."""

from repro.core.select_syscall import FD_SETSIZE
from repro.http.content import DEFAULT_DOCUMENT_BYTES
from repro.servers.base import ServerConfig
from repro.servers.thttpd import ThttpdSelectServer

from .conftest import fetch_documents, run_until_quiet


def make_server(testbed, **cfg):
    server = ThttpdSelectServer(testbed.server_kernel,
                                config=ServerConfig(**cfg) if cfg else None)
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    return server


def test_serves_documents(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 10, spacing=0.01)
    run_until_quiet(testbed, horizon=10, condition=lambda: len(results) == 10)
    assert all(results[i] == (200, DEFAULT_DOCUMENT_BYTES)
               for i in range(10))
    assert server.stats.responses == 10


def test_idle_timeout_sweep(testbed):
    server = make_server(testbed, idle_timeout=1.0, timer_interval=0.25)
    fetch_documents(testbed, 3, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=8,
                    condition=lambda: server.stats.idle_closes == 3)
    assert server.stats.idle_closes == 3


def test_select_cpu_categories_charged(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 5, spacing=0.05)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 5)
    cats = testbed.server_kernel.cpu.busy_by_category
    assert cats.get("select.bitmaps", 0) > 0
    assert cats.get("select.scan", 0) > 0


def test_fd_setsize_cap_refuses_excess_connections(testbed):
    """Descriptors at or beyond FD_SETSIZE cannot be watched by select;
    the server must turn those connections away immediately."""
    server = make_server(testbed, fd_limit=FD_SETSIZE + 64,
                         idle_timeout=60.0)
    # fill the descriptor space with held (partial) connections, fast
    from repro.bench.inactive import InactiveConnectionPool, InactivePoolConfig

    pool = InactiveConnectionPool(
        testbed, InactivePoolConfig(count=FD_SETSIZE + 8, ramp_time=3.0))
    pool.start()
    run_until_quiet(testbed, horizon=60,
                    condition=lambda: server.fd_setsize_refusals > 0)
    assert server.fd_setsize_refusals > 0
    assert all(fd < FD_SETSIZE for fd in server.conns)
    assert server._process.crashed is None
