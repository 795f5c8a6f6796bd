"""thttpd on the shared event loop, parameterized by backend.

thttpd runs :meth:`BaseServer.event_loop
<repro.servers.base.BaseServer.event_loop>`; the mechanism is a
constructor argument (``backend="poll"`` by default).  The pinned
variants (:class:`ThttpdSelectServer`, :class:`ThttpdDevpollServer`,
:class:`ThttpdEpollServer`) live here too.

The poll() default models thttpd 2.x's fdwatch weaknesses the paper
calls out: the pollfd array is rebuilt from scratch every iteration
(section 6), every open connection -- active or inactive -- appears in
every poll call, and a periodic timer sweep closes idle connections.
Those per-loop costs live in the backend, charged in exactly the order
thttpd's own loop charged them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.devpoll import DevPollConfig
from ..core.select_syscall import FD_SETSIZE
from .base import BaseServer, ServerConfig


class ThttpdServer(BaseServer):
    name = "thttpd"
    immediate_write = False

    def __init__(self, kernel, site=None, config=None, backend=None):
        if backend is not None:
            self.backend_name = backend
        super().__init__(kernel, site, config)


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
        return self.backend.devpoll_file


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
        return self.backend.epoll_file
