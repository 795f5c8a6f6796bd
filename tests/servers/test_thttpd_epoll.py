"""End-to-end tests for thttpd on the epoll backend."""

from repro.http.content import DEFAULT_DOCUMENT_BYTES
from repro.servers.thttpd import EpollServerConfig, ThttpdEpollServer

from .conftest import fetch_documents, run_until_quiet


def make_server(testbed, **cfg):
    server = ThttpdEpollServer(testbed.server_kernel,
                               config=EpollServerConfig(**cfg))
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    return server


def test_serves_single_document(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 1)
    run_until_quiet(testbed, horizon=5, condition=lambda: 0 in results)
    assert results[0] == (200, DEFAULT_DOCUMENT_BYTES)
    assert server.stats.responses == 1


def test_serves_many_documents(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 25, spacing=0.005)
    run_until_quiet(testbed, horizon=10, condition=lambda: len(results) == 25)
    assert all(results[i][0] == 200 for i in range(25))
    assert server.stats.responses == 25


def test_edge_triggered_mode_serves_documents(testbed):
    server = make_server(testbed, edge_triggered=True)
    results = fetch_documents(testbed, 10, spacing=0.005)
    run_until_quiet(testbed, horizon=10, condition=lambda: len(results) == 10)
    assert all(results[i][0] == 200 for i in range(10))
    assert server.stats.responses == 10


def test_interest_set_tracks_live_connections(testbed):
    server = make_server(testbed, idle_timeout=2.0, timer_interval=0.5)
    fetch_documents(testbed, 1, partial=True)
    run_until_quiet(testbed, horizon=2,
                    condition=lambda: server.stats.accepts == 1)
    epf = server.epoll_file
    # listener + the one held connection
    assert len(epf.interests) == 2
    run_until_quiet(testbed, horizon=8,
                    condition=lambda: len(server.conns) == 0)
    # closing the fd was enough: the kernel collected the interest
    # itself, with no POLLREMOVE bookkeeping from the server
    assert len(epf.interests) == 1
    assert epf.stats.auto_removed_closed >= 1


def test_wait_cost_follows_activity_not_interest_size(testbed):
    """The paper's scalability property, via syscall semantics: idle
    connections never get their driver poll callback re-run."""
    server = make_server(testbed, idle_timeout=30.0)
    fetch_documents(testbed, 8, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=2,
                    condition=lambda: server.stats.accepts == 8)
    idle_files = [server.task.fdtable.get(fd) for fd in server.conns]
    before = [f.poll_callback_count for f in idle_files]
    results = fetch_documents(testbed, 5, spacing=0.05)
    run_until_quiet(testbed, horizon=8, condition=lambda: len(results) == 5)
    after = [f.poll_callback_count for f in idle_files]
    assert after == before  # never re-scanned


def test_ctl_traffic_is_per_connection_not_per_loop(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 10, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 10)
    epf = server.epoll_file
    # listener add + one add per conn, plus at most a POLLOUT mod each
    assert epf.stats.ctl_adds <= 1 + 10
    assert epf.stats.ctl_mods <= 10
    assert server.stats.responses == 10


def test_idle_timeout_sweep(testbed):
    server = make_server(testbed, idle_timeout=1.0, timer_interval=0.25)
    fetch_documents(testbed, 3, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=2,
                    condition=lambda: server.stats.accepts == 3)
    run_until_quiet(testbed, horizon=8,
                    condition=lambda: server.stats.idle_closes == 3)
    assert server.stats.idle_closes == 3
