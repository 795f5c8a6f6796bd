"""End-to-end tests for thttpd modified to use /dev/poll."""

import pytest

from repro.core.devpoll import DevPollConfig
from repro.http.content import DEFAULT_DOCUMENT_BYTES
from repro.kernel.constants import POLLIN
from repro.servers.thttpd import DevpollServerConfig, ThttpdDevpollServer

from .conftest import fetch_documents, run_until_quiet


def make_server(testbed, **cfg):
    server = ThttpdDevpollServer(testbed.server_kernel,
                                 config=DevpollServerConfig(**cfg))
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


def test_interest_set_tracks_live_connections(testbed):
    server = make_server(testbed, idle_timeout=2.0, timer_interval=0.5)
    fetch_documents(testbed, 1, partial=True)
    run_until_quiet(testbed, horizon=2,
                    condition=lambda: server.stats.accepts == 1)
    dpf = server.devpoll_file
    # listener + the one held connection
    assert len(dpf.interests) == 2
    run_until_quiet(testbed, horizon=8,
                    condition=lambda: len(server.conns) == 0)
    assert len(dpf.interests) == 1  # only the listener remains


def test_interest_updates_are_batched_writes(testbed):
    """Interest maintenance must be incremental write()s, not per-call
    rebuilds: far fewer update ops than loop iterations x conns."""
    server = make_server(testbed)
    results = fetch_documents(testbed, 10, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 10)
    dpf = server.devpoll_file
    # listener add + per conn: add, (maybe POLLOUT mod), remove
    assert dpf.stats.updates <= 1 + 10 * 3
    assert server.stats.responses == 10


def test_mmap_disabled_still_works(testbed):
    server = make_server(testbed, use_mmap=False)
    results = fetch_documents(testbed, 3, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 3)
    assert server.stats.responses == 3
    assert server.devpoll_file.stats.results_via_mmap == 0


def test_mmap_enabled_uses_shared_area(testbed):
    server = make_server(testbed, use_mmap=True)
    results = fetch_documents(testbed, 3, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 3)
    assert server.devpoll_file.stats.results_via_mmap > 0


def test_combined_update_poll_syscall(testbed):
    server = make_server(testbed, combined_update_poll=True)
    results = fetch_documents(testbed, 3, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 3)
    assert server.stats.responses == 3
    # no separate write() calls to /dev/poll at all
    assert testbed.server_kernel.counters.get("sys.write") <= 3 * 2  # responses only


def test_hints_disabled_config_propagates(testbed):
    server = make_server(testbed, devpoll=DevPollConfig(use_hints=False))
    results = fetch_documents(testbed, 2, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 2)
    dpf = server.devpoll_file
    assert dpf.config.use_hints is False
    assert dpf.stats.driver_callbacks_full > 0
    assert dpf.stats.driver_callbacks_hinted == 0


def test_hints_reduce_driver_callbacks_with_idle_connections(testbed):
    """The section 3.2 effect, observed end-to-end: idle (inactive)
    connections cost no driver poll callbacks once their hint is clear."""
    server = make_server(testbed, idle_timeout=30.0)
    fetch_documents(testbed, 8, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=2,
                    condition=lambda: server.stats.accepts == 8)
    dpf = server.devpoll_file
    idle_files = [server.task.fdtable.get(fd) for fd in server.conns]
    before = [f.poll_callback_count for f in idle_files]
    # serve active requests while the 8 inactive conns sit idle
    results = fetch_documents(testbed, 5, spacing=0.05)
    run_until_quiet(testbed, horizon=8, condition=lambda: len(results) == 5)
    after = [f.poll_callback_count for f in idle_files]
    assert after == before  # never re-scanned


def test_idle_timeout_sweep(testbed):
    server = make_server(testbed, idle_timeout=1.0, timer_interval=0.25)
    fetch_documents(testbed, 3, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=2,
                    condition=lambda: server.stats.accepts == 3)
    run_until_quiet(testbed, horizon=8,
                    condition=lambda: server.stats.idle_closes == 3)
    assert server.stats.idle_closes == 3
