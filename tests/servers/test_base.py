"""Tests for server-shared machinery (Connection, InterestUpdateBatch)."""

import pytest

from repro.events.devpoll_backend import InterestUpdateBatch
from repro.kernel.constants import POLLIN, POLLOUT, POLLREMOVE
from repro.servers.base import Connection, ServerConfig


# ---------------------------------------------------------------------------
# Connection bookkeeping
# ---------------------------------------------------------------------------

def test_connection_idle_tracking():
    conn = Connection(5, now=10.0)
    assert conn.idle_for(12.0) == 2.0
    conn.touch(13.0)
    assert conn.idle_for(14.0) == 1.0
    assert conn.accepted_at == 10.0


def test_connection_initial_state():
    conn = Connection(5, now=0.0)
    assert conn.state == "reading"
    assert conn.outbuf == b""


# ---------------------------------------------------------------------------
# InterestUpdateBatch coalescing
# ---------------------------------------------------------------------------

def test_add_then_flush_emits_update():
    b = InterestUpdateBatch()
    b.add(4, POLLIN)
    updates = b.flush()
    assert [(u.fd, u.events) for u in updates] == [(4, POLLIN)]
    assert b.flush() == []


def test_add_then_remove_before_flush_cancels_both():
    """A connection accepted and closed within one event batch must not
    reach the kernel at all."""
    b = InterestUpdateBatch()
    b.add(4, POLLIN)
    b.remove(4)
    assert b.flush() == []


def test_remove_of_kernel_known_fd_emits_pollremove():
    b = InterestUpdateBatch()
    b.add(4, POLLIN)
    b.flush()
    b.remove(4)
    updates = b.flush()
    assert [(u.fd, u.events) for u in updates] == [(4, POLLREMOVE)]


def test_remove_cancels_pending_modify_but_still_removes():
    b = InterestUpdateBatch()
    b.add(4, POLLIN)
    b.flush()
    b.add(4, POLLOUT)  # staged modify
    b.remove(4)
    updates = b.flush()
    assert [(u.fd, u.events) for u in updates] == [(4, POLLREMOVE)]


def test_remove_then_readd_reused_fd_orders_correctly():
    b = InterestUpdateBatch()
    b.add(4, POLLIN)
    b.flush()
    b.remove(4)
    b.add(4, POLLIN)  # fd number reused by a fresh connection
    updates = b.flush()
    assert [(u.fd, u.events) for u in updates] == [
        (4, POLLREMOVE), (4, POLLIN)]


def test_remove_unknown_fd_is_noop():
    b = InterestUpdateBatch()
    b.remove(9)
    assert b.flush() == []


def test_in_kernel_tracking_across_flushes():
    b = InterestUpdateBatch()
    b.add(1, POLLIN)
    b.add(2, POLLIN)
    b.flush()
    b.remove(1)
    b.flush()
    b.remove(1)  # already removed: no second POLLREMOVE
    assert b.flush() == []
    b.remove(2)
    assert len(b.flush()) == 1


def test_len_reports_staged_updates():
    b = InterestUpdateBatch()
    assert len(b) == 0
    b.add(1, POLLIN)
    assert len(b) == 1


def test_server_config_defaults():
    cfg = ServerConfig()
    assert cfg.port == 80
    assert cfg.backlog == 128
    assert cfg.idle_timeout > 0
    assert cfg.rtsig_max is None
