"""A compact TCP model: everything the benchmark's behaviour depends on.

This is not a sequence-number TCP; the switched LAN link is reliable and
ordered, so the model keeps the pieces with performance consequences:

* three-way-handshake latency, with **listen-backlog overflow dropping
  SYNs silently** and the client retransmitting on 2.2-era exponential
  RTOs (3 s, 6 s, 12 s).  This is the mechanism behind the paper's
  min-reply-rate collapse and error-rate growth under overload;
* receiver-window flow control (a sender pauses when the peer's receive
  buffer fills -- exactly how a slow/inactive client pins server state);
* graceful close (FIN after the send buffer drains, continuing after the
  application's ``close()`` returns), abortive close (RST when unread
  data is discarded, e.g. an httperf client giving up), and **TIME-WAIT**
  port retention for 60 s, which forces the paper's 35 000-connections-
  per-run discipline;
* per-segment CPU charges at both hosts (interrupt + stack costs), the
  "bursty interrupt load" of many high-latency clients.

Endpoints hold direct references to their peers once established; only
SYNs are demultiplexed (by listener port) via :class:`~repro.net.stack.NetStack`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from ..kernel.constants import (
    ECONNREFUSED,
    ECONNRESET,
    EPIPE,
    POLLERR,
    POLLHUP,
    POLLIN,
    POLLOUT,
    SyscallError,
)
from ..sim.engine import Event
from .link import MSS

if TYPE_CHECKING:  # pragma: no cover
    from .stack import NetStack

#: Linux 2.2 initial SYN retransmission schedule (seconds).
SYN_RTO_SCHEDULE = (3.0, 6.0, 12.0)
#: 2 * MSL, the TIME-WAIT holding period the paper works around.
TIME_WAIT_SECONDS = 60.0

DEFAULT_SEND_BUF = 16384
DEFAULT_RECV_BUF = 32768
#: Largest frame train per link transmission (segmentation granularity).
TRAIN_CAP = 65536


def segments_for(nbytes: int) -> int:
    return max(1, math.ceil(nbytes / MSS))


class TcpEndpoint:
    """One side of a connection (or a connecting client)."""

    __slots__ = ("conn_id", "stack", "local_port", "remote_host",
                 "remote_port", "owns_port", "send_buf", "recv_buf", "peer",
                 "established", "closing", "fin_sent", "fin_received",
                 "reset", "finalized", "sent_fin_first", "_send_queue",
                 "send_pending", "_transmitting", "_recv_chunks",
                 "recv_bytes", "connect_result", "notify", "__weakref__")

    _ids = 0

    def __init__(self, stack: "NetStack", local_port: int,
                 remote_host: str, owns_port: bool,
                 send_buf: int = DEFAULT_SEND_BUF,
                 recv_buf: int = DEFAULT_RECV_BUF):
        TcpEndpoint._ids += 1
        self.conn_id = TcpEndpoint._ids
        self.stack = stack
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port: int = -1
        self.owns_port = owns_port
        self.send_buf = send_buf
        self.recv_buf = recv_buf

        self.peer: Optional["TcpEndpoint"] = None
        self.established = False
        self.closing = False          # local close() issued
        self.fin_sent = False
        self.fin_received = False
        self.reset = False
        self.finalized = False
        self.sent_fin_first = False

        # lists, not deques: they rarely hold more than one chunk, and an
        # empty list costs a twelfth of an empty deque's memory
        self._send_queue: List[bytes] = []
        self.send_pending = 0
        self._transmitting = False
        self._recv_chunks: List[bytes] = []
        self.recv_bytes = 0

        #: triggered with 0 on success or an errno on failure
        self.connect_result: Event = stack.sim.event("tcp.connect")
        #: hook the owning SocketFile installs to surface poll events
        self.notify: Callable[[int], None] = lambda band: None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def recv_space(self) -> int:
        return max(0, self.recv_buf - self.recv_bytes)

    @property
    def send_space(self) -> int:
        return max(0, self.send_buf - self.send_pending)

    def poll_mask(self) -> int:
        if self.reset:
            return POLLIN | POLLERR | POLLHUP
        mask = POLLIN if self.recv_bytes > 0 or self.fin_received else 0
        if self.fin_sent:
            if self.fin_received:
                mask |= POLLHUP
        elif (self.established and not self.closing
              and self.send_pending < self.send_buf):
            mask |= POLLOUT
        return mask

    # ------------------------------------------------------------------
    # client-side connection establishment
    # ------------------------------------------------------------------
    def send_syn(self, dst_host: str, dst_port: int) -> None:
        self.remote_port = dst_port
        stack = self.stack

        def on_arrival() -> None:
            stack.network.stack(dst_host).deliver_syn(self, dst_port)

        stack.charge_tx(1)
        stack.network.send(stack.host_name, dst_host, 0, 1, on_arrival)

    def syn_accepted(self, server_end: "TcpEndpoint") -> None:
        """Server side built its endpoint; SYNACK travels back to us."""
        stack = self.stack

        def on_synack() -> None:
            stack.charge_rx(1)
            if self.connect_result.triggered:
                return  # late SYNACK after caller gave up; will RST on use
            self.peer = server_end
            self.established = True
            self.connect_result.trigger(0)
            self.notify(POLLOUT)

        server_end.stack.charge_tx(1)
        server_end.stack.network.send(
            server_end.stack.host_name, stack.host_name, 0, 1, on_synack)

    def syn_refused(self, errno_code: int = ECONNREFUSED) -> None:
        if not self.connect_result.triggered:
            self.connect_result.trigger(errno_code)

    # ------------------------------------------------------------------
    # data transfer
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> int:
        """Queue bytes for transmission; returns how many were accepted
        (0 means the send buffer is full).  Raises on broken connections."""
        if self.reset:
            raise SyscallError(ECONNRESET)
        if self.closing or self.fin_sent:
            raise SyscallError(EPIPE, "send after close/shutdown")
        if not self.established:
            raise SyscallError(EPIPE, "send on unconnected endpoint")
        accepted = min(len(data), self.send_space)
        if accepted == 0:
            return 0
        self._send_queue.append(data[:accepted])
        self.send_pending += accepted
        self._pump()
        return accepted

    def _take_chunk(self, limit: int) -> bytes:
        parts = []
        taken = 0
        while self._send_queue and taken < limit:
            head = self._send_queue[0]
            room = limit - taken
            if len(head) <= room:
                parts.append(self._send_queue.pop(0))
                taken += len(head)
            else:
                parts.append(head[:room])
                self._send_queue[0] = head[room:]
                taken += room
        self.send_pending -= taken
        return b"".join(parts)

    def _pump(self) -> None:
        """Advance the transmit engine: at most one train in flight."""
        if self._transmitting or self.reset or self.peer is None:
            return
        if self.send_pending == 0:
            if self.closing and not self.fin_sent:
                self._send_fin()
            return
        window = self.peer.recv_space
        limit = min(self.send_pending, window, TRAIN_CAP)
        if limit <= 0:
            return  # window closed; peer's read will re-pump us
        chunk = self._take_chunk(limit)
        segs = segments_for(len(chunk))
        self._transmitting = True
        self.stack.charge_tx(segs)
        peer = self.peer

        def on_arrival() -> None:
            self._transmitting = False
            peer.receive_data(chunk, segs)
            # delayed-ACK return traffic: charged, not transmitted
            self.stack.charge_ack_rx(max(1, segs // 2))
            if self.send_space > 0 and not self.closing:
                self.notify(POLLOUT)
            self._pump()

        self.stack.network.send(
            self.stack.host_name, peer.stack.host_name, len(chunk), segs,
            on_arrival)

    def receive_data(self, chunk: bytes, segs: int) -> None:
        self.stack.charge_rx_ack(segs, max(1, segs // 2))
        if self.finalized or self.reset or self.closing:
            # Data for a connection the application abandoned: abort.
            self.send_rst()
            return
        self._recv_chunks.append(chunk)
        self.recv_bytes += len(chunk)
        self.notify(POLLIN)

    def recv(self, nbytes: int) -> Optional[bytes]:
        """Take up to ``nbytes``; b"" on EOF; None if it would block."""
        if self.reset:
            raise SyscallError(ECONNRESET)
        if self.recv_bytes > 0:
            parts = []
            taken = 0
            while self._recv_chunks and taken < nbytes:
                head = self._recv_chunks[0]
                room = nbytes - taken
                if len(head) <= room:
                    parts.append(self._recv_chunks.pop(0))
                    taken += len(head)
                else:
                    parts.append(head[:room])
                    self._recv_chunks[0] = head[room:]
                    taken += room
            self.recv_bytes -= taken
            if self.peer is not None:
                self.peer._pump()  # window opened
            return b"".join(parts)
        if self.fin_received:
            return b""
        return None

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _send_fin(self) -> None:
        self.fin_sent = True
        if not self.fin_received:
            self.sent_fin_first = True
        peer = self.peer
        if peer is None:
            self._finalize()
            return
        self.stack.charge_tx(1)

        def on_arrival() -> None:
            peer.receive_fin()
            self._maybe_finalize()

        self.stack.network.send(
            self.stack.host_name, peer.stack.host_name, 0, 1, on_arrival)

    def receive_fin(self) -> None:
        self.stack.charge_rx(1)
        if self.finalized or self.reset:
            return
        self.fin_received = True
        self.notify(POLLIN | (POLLHUP if self.fin_sent else 0))
        self._maybe_finalize()

    def _maybe_finalize(self) -> None:
        if self.fin_sent and self.fin_received and not self.finalized:
            self._finalize()

    def send_rst(self) -> None:
        peer = self.peer
        if peer is None:
            return
        self.stack.charge_tx(1)

        def on_arrival() -> None:
            peer.receive_rst()

        self.stack.network.send(
            self.stack.host_name, peer.stack.host_name, 0, 1, on_arrival)

    def receive_rst(self) -> None:
        self.stack.charge_rx(1)
        if self.finalized:
            return
        self.reset = True
        self._recv_chunks.clear()
        self.recv_bytes = 0
        self._send_queue.clear()
        self.send_pending = 0
        self.notify(POLLERR | POLLHUP | POLLIN)
        self._finalize(time_wait=False)

    def close(self) -> None:
        """Application close.  Abortive if unread data would be discarded
        (Linux sends RST then); graceful FIN otherwise, draining first."""
        if self.finalized or self.closing:
            return
        if not self.established:
            # connect never completed; just release resources
            self._finalize(time_wait=False)
            return
        if self.recv_bytes > 0 or self.reset:
            self._send_queue.clear()
            self.send_pending = 0
            if not self.reset:
                self.send_rst()
            self._finalize(time_wait=False)
            return
        self.closing = True
        self._pump()  # FIN goes out once the send queue drains

    def _finalize(self, time_wait: Optional[bool] = None) -> None:
        if self.finalized:
            return
        self.finalized = True
        hold = self.sent_fin_first if time_wait is None else time_wait
        self.stack.connection_closed(self, time_wait=hold)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            c for c, on in [
                ("E", self.established), ("C", self.closing),
                ("f", self.fin_sent), ("F", self.fin_received),
                ("R", self.reset), ("X", self.finalized)]
            if on)
        return f"<TcpEndpoint #{self.conn_id} :{self.local_port} {flags}>"


class Listener:
    """A listening socket's accept queue with a bounded backlog."""

    def __init__(self, stack: "NetStack", port: int, backlog: int):
        self.stack = stack
        self.port = port
        self.backlog = backlog
        self.queue: Deque[TcpEndpoint] = deque()
        self.closed = False
        self.syn_drops = 0
        self.accepted_total = 0
        #: SYNs a ReusePortGroup dispatched to this member
        self.syns_routed = 0
        #: hook installed by the owning SocketFile
        self.notify: Callable[[int], None] = lambda band: None

    def handle_syn(self, client_end: TcpEndpoint) -> None:
        if self.closed:
            client_end.syn_refused(ECONNREFUSED)
            return
        if len(self.queue) >= self.backlog:
            # Linux drops the SYN silently; the client's RTO retries.
            self.syn_drops += 1
            self.stack.counters["tcp.syn_drops"] += 1
            return
        server_end = TcpEndpoint(
            self.stack, self.port, client_end.stack.host_name,
            owns_port=False)
        server_end.remote_port = client_end.local_port
        server_end.peer = client_end
        server_end.established = True
        self.queue.append(server_end)
        self.stack.connection_opened()
        self.stack.counters["tcp.accepted_queued"] += 1
        client_end.syn_accepted(server_end)
        self.notify(POLLIN)

    def pop(self) -> Optional[TcpEndpoint]:
        if self.queue:
            self.accepted_total += 1
            return self.queue.popleft()
        return None

    def close(self) -> None:
        self.closed = True
        for child in self.queue:
            child.send_rst()
            child._finalize(time_wait=False)
        self.queue.clear()
        self.stack.remove_listener(self.port, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Listener :{self.port} pending={len(self.queue)}/{self.backlog}>"


def _shard_hash(value: int) -> int:
    """Knuth multiplicative hash over a port number.

    Deliberately *not* Python's ``hash()``, which is salted per
    interpreter run and would make shard routing nondeterministic.
    """
    return ((value * 2654435761) & 0xFFFFFFFF) >> 16


class ReusePortGroup:
    """All listeners bound to one port with SO_REUSEPORT.

    Each member keeps its own bounded accept queue; the group only
    decides which member a SYN lands on.  ``hash`` dispatch keys on the
    client's ephemeral port, so one client's retransmitted SYNs always
    hit the same queue (as the real SO_REUSEPORT four-tuple hash does);
    ``round-robin`` spreads strictly evenly.  A full member's queue
    drops the SYN silently -- sharding removes the shared accept queue,
    not the backlog limit.
    """

    def __init__(self, stack: "NetStack", port: int):
        self.stack = stack
        self.port = port
        self.members: List[Listener] = []
        self._rr = 0
        #: SYNs dispatched through the group
        self.routed = 0

    def add(self, listener: Listener) -> None:
        self.members.append(listener)

    def discard(self, listener: Listener) -> None:
        try:
            self.members.remove(listener)
        except ValueError:
            pass

    @property
    def live(self) -> List[Listener]:
        return [m for m in self.members if not m.closed]

    def select(self, client_end: TcpEndpoint,
               dispatch: str = "hash") -> Optional[Listener]:
        """Pick the member for this SYN, or None when none are live."""
        live = self.live
        if not live:
            return None
        if dispatch == "round-robin":
            listener = live[self._rr % len(live)]
            self._rr += 1
        else:
            listener = live[_shard_hash(client_end.local_port) % len(live)]
        listener.syns_routed += 1
        self.routed += 1
        return listener

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReusePortGroup :{self.port} members={len(self.members)}>"
