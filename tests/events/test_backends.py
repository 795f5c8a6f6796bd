"""Tests for the unified event-backend layer (repro.events).

The registry and protocol are exercised directly against a stub server,
including the interest-set edge cases the real servers depend on:
close-before-flush coalescing, solaris-compat OR semantics, and fd
reuse inside one update batch -- all through the backend API rather
than the raw /dev/poll file (tests/core/test_devpoll.py covers that
side).
"""

import pytest

from repro.core.devpoll import DevPollConfig
from repro.events import (
    BACKENDS,
    DevpollBackend,
    EpollBackend,
    EventBackend,
    HybridBackend,
    PollBackend,
    RtsigBackend,
    SelectBackend,
    make_backend,
)
from repro.kernel.constants import POLLIN, POLLOUT
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import SyscallInterface
from repro.servers.base import ServerStats
from repro.sim.engine import Simulator

from ..core.conftest import FakeDriverFile, drive


# ---------------------------------------------------------------------------
# a minimal server stand-in: just the attributes backends touch
# ---------------------------------------------------------------------------

class FakeConfig:
    use_mmap = False
    combined_update_poll = False
    result_capacity = 64
    devpoll = None
    edge_triggered = False
    max_events = 64
    signal_batch = 1


class FakeServer:
    name = "fake"

    def __init__(self, kernel, config=None):
        self.kernel = kernel
        self.task = kernel.new_task("fake-server")
        self.sys = SyscallInterface(self.task)
        self.config = config if config is not None else FakeConfig()
        self.stats = ServerStats()
        self.listener = FakeDriverFile(kernel, "listener")
        self.listen_fd = self.task.fdtable.alloc(self.listener)


@pytest.fixture
def kernel():
    return Kernel(Simulator(), "k")


@pytest.fixture
def server(kernel):
    return FakeServer(kernel)


def run(server, gen):
    return drive(server.kernel.sim, gen)


def open_file(server, name="conn"):
    f = FakeDriverFile(server.kernel, name)
    return f, server.task.fdtable.alloc(f)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_names_all_six_mechanisms():
    # the five simulated mechanisms from the paper plus its section-6
    # hybrid; the live-* entries (real-socket runtime) register
    # alongside them when available
    sim = {name for name in BACKENDS if not name.startswith("live-")}
    assert sim == {"select", "poll", "devpoll", "rtsig", "epoll", "hybrid"}
    assert BACKENDS["select"] is SelectBackend
    assert BACKENDS["poll"] is PollBackend
    assert BACKENDS["devpoll"] is DevpollBackend
    assert BACKENDS["rtsig"] is RtsigBackend
    assert BACKENDS["epoll"] is EpollBackend
    assert BACKENDS["hybrid"] is HybridBackend


def test_make_backend_instantiates_by_name(server):
    backend = make_backend("poll", server)
    assert isinstance(backend, PollBackend)
    assert backend.server is server
    assert backend.stats.waits == 0


def test_make_backend_unknown_name_lists_choices(server):
    with pytest.raises(ValueError) as err:
        make_backend("kqueue", server)
    assert "kqueue" in str(err.value)
    assert "devpoll" in str(err.value)


def test_every_backend_constructs_against_a_server(server):
    for name in BACKENDS:
        backend = make_backend(name, server)
        assert backend.name == name
        assert isinstance(backend, EventBackend)


def test_capability_flags():
    assert SelectBackend.strict_state_stale is True
    assert SelectBackend.fd_capacity is not None
    for cls in (PollBackend, DevpollBackend, RtsigBackend, EpollBackend,
                HybridBackend):
        assert cls.strict_state_stale is False
        assert cls.fd_capacity is None
    # only the signal mechanisms count loops and miss prior readiness
    for name, cls in BACKENDS.items():
        signals = cls in (RtsigBackend, HybridBackend)
        assert cls.counts_loops is signals, name
        assert cls.arming_misses_readiness is signals, name


# ---------------------------------------------------------------------------
# unified stats: every backend counts waits the same way
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["select", "poll", "devpoll", "epoll"])
def test_unified_stats_spurious_and_registered(kernel, name):
    # rtsig's wait needs the full server loop; its unified stats are
    # pinned end-to-end in tests/obs/test_causal.py instead.
    server = FakeServer(kernel)
    backend = make_backend(name, server)
    run(server, backend.setup())
    f, fd = open_file(server)
    run(server, backend.register(fd, POLLIN))
    ready = run(server, backend.wait(timeout=0))
    assert ready == []
    assert backend.stats.waits == 1
    assert backend.stats.spurious_wakeups == 1  # woke with nothing ready
    f.set_ready(POLLIN)
    ready = run(server, backend.wait(timeout=0))
    assert (fd, POLLIN) in ready
    assert backend.stats.waits == 2
    assert backend.stats.spurious_wakeups == 1  # a real harvest isn't spurious
    assert backend.stats.events >= 1
    # listener + conn watched on both waits, whatever the mechanism
    assert backend.stats.registered_sum == 4


# ---------------------------------------------------------------------------
# userspace backends: mutation is free, bookkeeping is local
# ---------------------------------------------------------------------------

def test_poll_backend_interest_lifecycle(server):
    backend = make_backend("poll", server)
    run(server, backend.register(5, POLLIN))
    run(server, backend.modify(5, POLLOUT))
    assert backend._interests == {5: POLLOUT}
    run(server, backend.unregister(5))
    assert backend._interests == {}
    assert backend.stats.registers == 1
    assert backend.stats.modifies == 1
    assert backend.stats.unregisters == 1
    # mutation charged nothing: no simulated time passed
    assert server.kernel.sim.now == 0.0


def test_modify_of_unknown_fd_is_ignored(server):
    for name in ("poll", "select"):
        backend = make_backend(name, server)
        run(server, backend.modify(42, POLLOUT))
        assert backend._interests == {}


# ---------------------------------------------------------------------------
# /dev/poll backend: staged batches reach the kernel only on wait
# ---------------------------------------------------------------------------

def test_devpoll_close_before_flush_never_reaches_kernel(server):
    backend = make_backend("devpoll", server)
    run(server, backend.setup())
    f, fd = open_file(server)
    run(server, backend.register(fd, POLLIN))
    backend.interest_forget(fd)  # closed in the same event batch
    run(server, backend.wait(timeout=0))
    dpf = server.task.fdtable.get(backend.dp_fd)
    # only the listener add was written; the add/remove pair coalesced
    assert dpf.stats.updates == 1
    assert len(dpf.interests) == 1
    assert dpf.interests.lookup(server.listen_fd) is not None


def test_devpoll_forget_of_never_registered_fd_is_noop(server):
    backend = make_backend("devpoll", server)
    run(server, backend.setup())
    f, fd = open_file(server)
    backend.interest_forget(fd)  # never registered: nothing staged
    run(server, backend.wait(timeout=0))
    dpf = server.task.fdtable.get(backend.dp_fd)
    assert dpf.stats.updates == 1  # listener only
    assert len(dpf.interests) == 1


def test_devpoll_solaris_compat_ors_across_flushes(kernel):
    cfg = FakeConfig()
    cfg.devpoll = DevPollConfig(solaris_compat=True)
    server = FakeServer(kernel, cfg)
    backend = make_backend("devpoll", server)
    run(server, backend.setup())
    f, fd = open_file(server)
    run(server, backend.register(fd, POLLIN))
    run(server, backend.wait(timeout=0))
    run(server, backend.modify(fd, POLLOUT))
    run(server, backend.wait(timeout=0))
    dpf = server.task.fdtable.get(backend.dp_fd)
    # Solaris semantics: a re-add ORs into the existing interest
    assert dpf.interests.lookup(fd).events == POLLIN | POLLOUT


def test_devpoll_default_mode_replaces_the_mask(server):
    backend = make_backend("devpoll", server)
    run(server, backend.setup())
    f, fd = open_file(server)
    run(server, backend.register(fd, POLLIN))
    run(server, backend.wait(timeout=0))
    run(server, backend.modify(fd, POLLOUT))
    run(server, backend.wait(timeout=0))
    dpf = server.task.fdtable.get(backend.dp_fd)
    assert dpf.interests.lookup(fd).events == POLLOUT


def test_devpoll_fd_reuse_within_one_batch(server):
    backend = make_backend("devpoll", server)
    run(server, backend.setup())
    old, fd = open_file(server, "old")
    run(server, backend.register(fd, POLLIN))
    run(server, backend.wait(timeout=0))  # kernel now watches old via fd
    # connection closes and the fd number is immediately reused
    run(server, backend.unregister(fd))
    server.task.fdtable.close(fd)
    new = FakeDriverFile(server.kernel, "new")
    assert server.task.fdtable.alloc(new) == fd
    run(server, backend.register(fd, POLLOUT))
    run(server, backend.wait(timeout=0))  # one batch: remove then re-add
    dpf = server.task.fdtable.get(backend.dp_fd)
    entry = dpf.interests.lookup(fd)
    assert entry.file is new
    assert entry.events == POLLOUT


def test_devpoll_wait_returns_ready_pairs(server):
    backend = make_backend("devpoll", server)
    run(server, backend.setup())
    f, fd = open_file(server)
    run(server, backend.register(fd, POLLIN))
    f.set_ready(POLLIN)
    ready = run(server, backend.wait(timeout=0))
    assert (fd, POLLIN) in ready
    assert backend.stats.waits == 1
    assert backend.stats.events >= 1
    assert server.kernel.counters.get("events.devpoll.waits") == 1


# ---------------------------------------------------------------------------
# epoll backend: kernel-side cleanup needs no userspace bookkeeping
# ---------------------------------------------------------------------------

def test_epoll_backend_forget_is_a_noop_and_kernel_self_cleans(server):
    backend = make_backend("epoll", server)
    run(server, backend.setup())
    f, fd = open_file(server)
    run(server, backend.register(fd, POLLIN))
    epf = backend.epoll_file
    assert len(epf.interests) == 2  # listener + conn
    backend.interest_forget(fd)  # no-op by design
    assert len(epf.interests) == 2
    server.task.fdtable.close(fd)
    run(server, backend.wait(timeout=0))
    assert epf.stats.auto_removed_closed == 1
    assert len(epf.interests) == 1  # listener only


def test_epoll_backend_edge_triggered_config(kernel):
    from repro.core.epoll import EPOLLET

    cfg = FakeConfig()
    cfg.edge_triggered = True
    server = FakeServer(kernel, cfg)
    backend = make_backend("epoll", server)
    run(server, backend.setup())
    f, fd = open_file(server)
    run(server, backend.register(fd, POLLIN))
    epf = backend.epoll_file
    assert epf.interests.lookup(fd).events & EPOLLET
    # the listener stays level-triggered regardless
    assert not epf.interests.lookup(server.listen_fd).events & EPOLLET
