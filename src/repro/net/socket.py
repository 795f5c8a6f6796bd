"""Socket files: the VFS face of :mod:`repro.net.tcp` endpoints.

``SocketFile`` is the driver the paper's hinting scheme targets:
``supports_hints = True`` marks it as one of the "essential drivers"
(network drivers) modified to post status changes to /dev/poll backmaps
(section 3.2).  Readiness transitions flow

    TcpEndpoint.notify -> SocketFile.notify -> wait queue wakeups,
    /dev/poll hint marks, and fasync RT-signal delivery

so every event interface in the paper observes identical ground truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..kernel.constants import (
    EAGAIN,
    EINVAL,
    ENOPROTOOPT,
    ENOTSOCK,
    ETIMEDOUT,
    EISCONN,
    O_NONBLOCK,
    POLLIN,
    POLLOUT,
    SO_REUSEPORT,
    SOL_SOCKET,
    SyscallError,
)
from ..kernel.file import File
from ..sim.process import wait_with_timeout
from ..sim.resources import PRIO_USER
from .tcp import SYN_RTO_SCHEDULE, Listener, TcpEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task

#: (host, port) address tuple
Addr = Tuple[str, int]


def require_socket(file: File) -> "SocketFile":
    if not isinstance(file, SocketFile):
        raise SyscallError(ENOTSOCK, f"{file.name} is not a socket")
    return file


class SocketFile(File):
    file_type = "socket"
    supports_hints = True

    def __init__(self, kernel: "Kernel", endpoint: Optional[TcpEndpoint] = None):
        super().__init__(kernel, name=f"sock{id(self) % 100000}")
        self.endpoint = endpoint
        self.listener: Optional[Listener] = None
        self.bound_port: Optional[int] = None
        #: SO_REUSEPORT: share the listening port with sibling workers
        self.reuse_port = False
        if endpoint is not None:
            endpoint.notify = self.notify
            self.name = f"sock:{endpoint.local_port}<-{endpoint.remote_port}"

    # ------------------------------------------------------------------
    @property
    def remote_addr(self) -> Optional[Addr]:
        if self.endpoint is None:
            return None
        return (self.endpoint.remote_host, self.endpoint.remote_port)

    @property
    def nonblocking(self) -> bool:
        return bool(self.f_flags & O_NONBLOCK)

    def _charge(self, seconds: float, category: str):
        if seconds > 0:
            yield self.kernel.cpu.consume(seconds, PRIO_USER, category)

    # ------------------------------------------------------------------
    # readiness (the device-driver poll callback)
    # ------------------------------------------------------------------
    def poll_mask(self) -> int:
        if self.listener is not None:
            return POLLIN if self.listener.queue else 0
        if self.endpoint is not None:
            return self.endpoint.poll_mask()
        return 0

    def driver_poll(self) -> int:
        """The callback, marking the socket quiet when it reads nothing
        but POLLOUT: the stack notifies every other bit's rise (a
        queued connection, data, FIN, RST), but not POLLOUT's."""
        self.settled_callbacks += 1
        mask = self.poll_mask()
        self.quiet = not mask & ~POLLOUT
        return mask

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def bind(self, port: int) -> None:
        if self.endpoint is not None or self.listener is not None:
            raise SyscallError(EINVAL, "bind on active socket")
        self.bound_port = port

    def set_option(self, level: int, optname: int, value: int) -> None:
        """setsockopt(2) backend; only SOL_SOCKET/SO_REUSEPORT exists."""
        if level == SOL_SOCKET and optname == SO_REUSEPORT:
            self.reuse_port = bool(value)
            return
        raise SyscallError(ENOPROTOOPT,
                           f"setsockopt level={level} opt={optname}")

    def listen(self, backlog: int) -> None:
        if self.bound_port is None:
            raise SyscallError(EINVAL, "listen before bind")
        if self.listener is not None:
            self.listener.backlog = backlog
            return
        stack = self._stack()
        self.listener = stack.add_listener(self.bound_port, backlog,
                                           reuse=self.reuse_port)
        self.listener.notify = self.notify
        self.name = f"listen:{self.bound_port}"

    def _stack(self):
        stack = self.kernel.net
        if stack is None:
            raise SyscallError(ENOTSOCK, "no network stack attached")
        return stack

    # ------------------------------------------------------------------
    # file operations
    # ------------------------------------------------------------------
    def do_accept(self, task: "Task"):
        if self.listener is None:
            raise SyscallError(EINVAL, "accept on non-listening socket")
        while True:
            child = self.listener.pop()
            if child is not None:
                return SocketFile(self.kernel, endpoint=child)
            if self.nonblocking:
                raise SyscallError(EAGAIN, "accept queue empty")
            yield self.wait_queue.wait_event()

    def do_connect(self, task: "Task", addr: Addr,
                   timeout: Optional[float] = None):
        if self.endpoint is not None:
            raise SyscallError(EISCONN)
        if self.listener is not None:
            raise SyscallError(EINVAL, "connect on listening socket")
        host, port = addr
        stack = self._stack()
        local_port = stack.alloc_ephemeral_port()
        endpoint = TcpEndpoint(stack, local_port, host, owns_port=True)
        endpoint.notify = self.notify
        self.endpoint = endpoint
        stack.connection_opened()
        self.name = f"sock:{local_port}->{port}"
        sim = self.kernel.sim
        deadline = None if timeout is None else sim.now + timeout
        for attempt, rto in enumerate(SYN_RTO_SCHEDULE):
            wait_for = rto
            if deadline is not None:
                remaining = deadline - sim.now
                if remaining <= 0:
                    break
                wait_for = min(rto, remaining)
            endpoint.send_syn(host, port)
            if attempt > 0:
                stack.counters["tcp.syn_retransmits"] += 1
            timed_out, errno_code = yield from wait_with_timeout(
                sim, endpoint.connect_result, wait_for)
            if not timed_out:
                if errno_code == 0:
                    return 0
                self.endpoint = None
                endpoint._finalize(time_wait=False)
                raise SyscallError(errno_code, "connect refused")
            if deadline is not None and sim.now >= deadline:
                break
        self.endpoint = None
        endpoint._finalize(time_wait=False)
        raise SyscallError(ETIMEDOUT, "connect timed out")

    def do_read(self, task: "Task", nbytes: int):
        endpoint = self._data_endpoint()
        costs = self.kernel.costs
        while True:
            data = endpoint.recv(nbytes)  # raises ECONNRESET on RST
            if data is not None:
                yield from self._charge(
                    costs.sock_read_base
                    + costs.sock_copy_per_byte * len(data), "sock.read")
                return data
            if self.nonblocking:
                raise SyscallError(EAGAIN, "no data")
            yield self.wait_queue.wait_event()

    def do_write(self, task: "Task", data: bytes):
        endpoint = self._data_endpoint()
        costs = self.kernel.costs
        total = 0
        view = data
        while view:
            accepted = endpoint.send(view)  # raises EPIPE/ECONNRESET
            if accepted:
                yield from self._charge(
                    costs.sock_write_base
                    + costs.sock_copy_per_byte * accepted, "sock.write")
                total += accepted
                view = view[accepted:]
                continue
            if self.nonblocking:
                if total:
                    return total
                raise SyscallError(EAGAIN, "send buffer full")
            yield self.wait_queue.wait_event()
        return total

    def do_sendfile(self, task: "Task", data: bytes):
        """sendfile()-style transmit of page-cache content: the same
        bytes go out, but without the user-space copy (cheaper per byte).
        """
        endpoint = self._data_endpoint()
        costs = self.kernel.costs
        total = 0
        view = data
        while view:
            accepted = endpoint.send(view)
            if accepted:
                yield from self._charge(
                    costs.sock_write_base
                    + costs.sendfile_per_byte * accepted, "sock.sendfile")
                total += accepted
                view = view[accepted:]
                continue
            if self.nonblocking:
                if total:
                    return total
                raise SyscallError(EAGAIN, "send buffer full")
            yield self.wait_queue.wait_event()
        return total

    def _data_endpoint(self) -> TcpEndpoint:
        if self.endpoint is None:
            raise SyscallError(EINVAL, "socket not connected")
        return self.endpoint

    # ------------------------------------------------------------------
    def on_release(self) -> None:
        if self.listener is not None:
            self.listener.close()
            self.listener = None
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint.notify = lambda band: None
            self.endpoint = None
        super().on_release()
