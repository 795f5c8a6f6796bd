"""End-to-end tests for phhttpd (RT signals + overflow handoff)."""

import pytest

from repro.http.content import DEFAULT_DOCUMENT_BYTES
from repro.kernel.constants import O_ASYNC, SIGRTMIN
from repro.servers.phhttpd import PhhttpdConfig, PhhttpdServer

from .conftest import fetch_documents, run_until_quiet


def make_server(testbed, **cfg):
    server = PhhttpdServer(testbed.server_kernel,
                           config=PhhttpdConfig(**cfg))
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    return server


def test_serves_single_document(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 1)
    run_until_quiet(testbed, horizon=5, condition=lambda: 0 in results)
    assert results[0] == (200, DEFAULT_DOCUMENT_BYTES)
    assert server.mode == "signals"


def test_serves_many_documents(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 25, spacing=0.005)
    run_until_quiet(testbed, horizon=10, condition=lambda: len(results) == 25)
    assert all(results[i][0] == 200 for i in range(25))
    assert server.stats.responses == 25


def test_connections_are_armed_with_unique_rt_signals(testbed):
    server = make_server(testbed, idle_timeout=30.0)
    fetch_documents(testbed, 3, partial=True, spacing=0.01)
    run_until_quiet(testbed, horizon=2,
                    condition=lambda: server.stats.accepts == 3)
    signos = set()
    for fd in server.conns:
        file = server.task.fdtable.get(fd)
        assert file.f_flags & O_ASYNC
        assert file.async_sig >= SIGRTMIN
        assert file.async_owner is server.task
        signos.add(file.async_sig)
    assert len(signos) == 3  # unique per fd


def test_linuxthreads_signal_avoided(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 5, spacing=0.01)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 5)
    assert SIGRTMIN not in server.backend.allocator.allocated


def test_signal_queue_drains_during_service(testbed):
    server = make_server(testbed)
    results = fetch_documents(testbed, 10, spacing=0.005)
    run_until_quiet(testbed, horizon=5, condition=lambda: len(results) == 10)
    assert server.task.signal_queue.rt_depth == 0
    assert server.task.signal_queue.stats.posted > 10


def test_overflow_triggers_handoff_to_poll_sibling(testbed):
    """Force a tiny rtsig-max: the queue overflows, every connection is
    handed to the sibling one message at a time, and service continues
    in polling mode -- never switching back (section 6)."""
    server = make_server(testbed, rtsig_max=4, idle_timeout=30.0)
    # park some held connections so there is state to hand off
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    results = fetch_documents(testbed, 12, spacing=0.001)
    run_until_quiet(testbed, horizon=20,
                    condition=lambda: server.mode == "polling"
                    and server.sibling.took_over
                    and len(results) == 12)
    assert server.mode == "polling"
    assert server.overflow_at is not None
    assert server.sibling.took_over
    assert server.handoffs > 0
    # requests keep being served by the sibling
    late = fetch_documents(testbed, 3, spacing=0.01)
    run_until_quiet(testbed, horizon=testbed.sim.now + 10,
                    condition=lambda: len(late) == 3)
    assert all(late[i][0] == 200 for i in range(3))
    # and the worker never returns to signal mode
    assert server.mode == "polling"


def test_handoff_transfers_connections_intact(testbed):
    server = make_server(testbed, rtsig_max=4, idle_timeout=30.0)
    fetch_documents(testbed, 6, partial=True, spacing=0.001)
    burst = fetch_documents(testbed, 10, spacing=0.001)
    run_until_quiet(testbed, horizon=20,
                    condition=lambda: server.sibling is not None
                    and server.sibling.took_over)
    # the held partial connections now live in the sibling
    assert len(server.conns) == 0
    assert len(server.sibling.conns) >= 1
    # worker's fd table kept only its handoff socket
    assert len(server.task.fdtable) <= 2


def test_sigtimedwait4_batch_mode(testbed):
    server = make_server(testbed, signal_batch=8)
    results = fetch_documents(testbed, 15, spacing=0.002)
    run_until_quiet(testbed, horizon=8, condition=lambda: len(results) == 15)
    assert all(results[i][0] == 200 for i in range(15))


def test_stale_events_for_closed_fds_are_dropped(testbed):
    """Events queued before close() must be consumed harmlessly."""
    server = make_server(testbed)
    results = fetch_documents(testbed, 20, spacing=0.002)
    run_until_quiet(testbed, horizon=8, condition=lambda: len(results) == 20)
    # any stale events observed were counted, none crashed the server
    assert server._process.crashed is None
    assert server.stats.responses == 20
