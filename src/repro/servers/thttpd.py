"""thttpd: the single-process event loop, parameterized by backend.

Historically this module held only the stock poll() build, with the
select(), /dev/poll, and epoll variants as forked copies of the loop.
The loop is now written once against the
:class:`~repro.events.base.EventBackend` protocol; the mechanism is a
constructor argument (``backend="poll"`` by default).  The pinned
variants (:class:`ThttpdSelectServer`, :class:`ThttpdDevpollServer`,
:class:`ThttpdEpollServer`) live here too.

The poll() default still models thttpd 2.x's fdwatch weaknesses the
paper calls out: the pollfd array is rebuilt from scratch every
iteration (section 6), every open connection -- active or inactive --
appears in every poll call, and a periodic timer sweep closes idle
connections.  Those per-loop costs live in the backend now, charged in
exactly the order the forked loops charged them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.devpoll import DevPollConfig
from ..core.select_syscall import FD_SETSIZE
from ..kernel.constants import POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT
from ..sim.resources import PRIO_USER
from .base import READING, WRITING, BaseServer, ServerConfig


class ThttpdServer(BaseServer):
    name = "thttpd"
    immediate_write = False
    backend_name = "poll"

    def __init__(self, kernel, site=None, config=None, backend=None):
        if backend is not None:
            self.backend_name = backend
        super().__init__(kernel, site, config)

    def run(self):
        yield from self.open_listener()
        yield from self.backend.setup()
        yield from self.poll_loop()

    def poll_loop(self):
        """The fdwatch loop proper; phhttpd's poll sibling reuses it after
        an overflow handoff (section 6)."""
        kernel = self.kernel
        sim = kernel.sim
        backend = self.backend
        next_sweep = sim.now + self.config.timer_interval
        # the per-event dispatch charge and the backend's bookkeeping
        # (e.g. fdwatch_check_fd(): poll/select re-search their whole
        # rebuilt array per handled event) are adjacent pure charges, so
        # they go out as one fused grant (each part its own FIFO slice)
        dispatch_part = ("app.dispatch", kernel.costs.app_event_dispatch,
                         None)

        while self.running:
            self.stats.loops += 1
            ready = yield from backend.wait(deadline=next_sweep)

            for fd, revents in ready:
                yield kernel.cpu.consume_parts(
                    (dispatch_part,) + backend.dispatch_parts(), PRIO_USER)
                if self.kernel.causal.enabled:
                    self.kernel.causal.dispatch(sim.now, fd)
                if fd == self.listen_fd:
                    new_conns = yield from self.accept_new()
                    for conn in new_conns:
                        yield from backend.register(conn.fd, POLLIN)
                    continue
                conn = self.conns.get(fd)
                if conn is None:
                    self.stats.stale_events += 1
                    if self.kernel.causal.enabled:
                        self.kernel.causal.stale(sim.now, fd)
                    continue
                if revents & POLLNVAL:
                    self.stats.stale_events += 1
                    if self.kernel.causal.enabled:
                        self.kernel.causal.stale(sim.now, fd)
                    yield from self.close_conn(conn)
                    continue
                if conn.state == READING and revents & (POLLIN | POLLERR | POLLHUP):
                    before = conn.state
                    result = yield from self.handle_readable(conn)
                    if result == "responding" and before == READING:
                        # response built; wait for writability next cycle
                        yield from backend.modify(conn.fd, POLLOUT)
                elif conn.state == WRITING and revents & (POLLOUT | POLLERR | POLLHUP):
                    yield from self.handle_writable(conn)
                elif backend.strict_state_stale:
                    # select() cannot re-check a revents mask against the
                    # connection state; a mismatch is a stale event
                    self.stats.stale_events += 1
                    if self.kernel.causal.enabled:
                        self.kernel.causal.stale(sim.now, fd)

            if sim.now >= next_sweep:
                yield from self.sweep_idle()
                next_sweep = sim.now + self.config.timer_interval


class ThttpdSelectServer(ThttpdServer):
    """thttpd with fdwatch on select(): bitmap copies scaled by the
    highest watched fd and a hard ``FD_SETSIZE`` interest cap -- beyond
    it the server must refuse connections outright (section 5's "stock
    httperf assumes that the maximum is 1024")."""

    name = "thttpd-select"
    backend_name = "select"

    def __init__(self, kernel, site=None, config=None):
        super().__init__(kernel, site, config)
        #: connections refused because the watch set hit FD_SETSIZE
        self.fd_setsize_refusals = 0

    def accept_new(self):
        """Like the base accept loop, but connections whose descriptor
        would not fit in an fd_set are closed on the spot."""
        capacity = self.backend.fd_capacity or FD_SETSIZE
        new_conns = yield from super().accept_new()
        kept = []
        for conn in new_conns:
            if conn.fd >= capacity:
                self.fd_setsize_refusals += 1
                yield from self.close_conn(conn)
            else:
                kept.append(conn)
        return kept


@dataclass
class DevpollServerConfig(ServerConfig):
    #: share the result area between kernel and server (section 3.3)
    use_mmap: bool = True
    #: fold update-write + poll into one syscall (section 6 future work)
    combined_update_poll: bool = False
    #: maximum results per DP_POLL
    result_capacity: int = 1024
    #: kernel-side /dev/poll behaviour (hints, hash-vs-linear, OR-mode)
    devpoll: DevPollConfig = field(default_factory=DevPollConfig)


class ThttpdDevpollServer(ThttpdServer):
    """thttpd modified for /dev/poll (the paper's section 5.1 server):
    incremental kernel-side interest updates flushed as one ``write()``
    per iteration, ``ioctl(DP_POLL)`` returning only ready fds, and
    optionally the mmap'd result area of section 3.3."""

    name = "thttpd-devpoll"
    backend_name = "devpoll"

    def __init__(self, kernel, site=None,
                 config: Optional[DevpollServerConfig] = None):
        super().__init__(kernel, site,
                         config if config is not None else DevpollServerConfig())

    # -- views over the backend's state ---------------------------------

    @property
    def dp_fd(self) -> int:
        return self.backend.dp_fd

    @property
    def devpoll_file(self):
        """The kernel-side /dev/poll object (for stats in tests/benches)."""
        return self.task.fdtable.lookup(self.backend.dp_fd)


@dataclass
class EpollServerConfig(ServerConfig):
    #: arm connection fds with EPOLLET (one report per readiness edge)
    edge_triggered: bool = False
    #: maximum events per epoll_wait
    max_events: int = 1024


class ThttpdEpollServer(ThttpdServer):
    """thttpd on epoll, the mechanism Linux eventually shipped (the
    direct descendant of the paper's /dev/poll work); see
    :mod:`repro.core.epoll` for the kernel side."""

    name = "thttpd-epoll"
    backend_name = "epoll"

    def __init__(self, kernel, site=None,
                 config: Optional[EpollServerConfig] = None):
        super().__init__(kernel, site,
                         config if config is not None else EpollServerConfig())

    # -- views over the backend's state ---------------------------------

    @property
    def ep_fd(self) -> int:
        return self.backend.ep_fd

    @property
    def epoll_file(self):
        """The kernel-side epoll object (for stats in tests/benches)."""
        return self.task.fdtable.lookup(self.backend.ep_fd)
