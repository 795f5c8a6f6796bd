"""Per-host network stack: ports, listeners, TIME-WAIT, CPU charging.

The stack enforces the two system limitations section 5 of the paper calls
out: the finite ephemeral-port space (~60 000 usable ports) and sockets
lingering in TIME-WAIT for sixty seconds after close.  The benchmark
harness reads :attr:`time_wait_count` to honour the paper's "wait for all
sockets to leave TIME-WAIT between runs" discipline without simulating
dead time.

A TIME-WAIT entry holds only its port (none for a server-side end, which
shares the listener's), as Linux's ``tcp_tw_bucket`` replaces the closed
socket: the finished connection's endpoints are freed when it finalizes,
not sixty seconds later.

The entries wait in one FIFO per stack, an engine
:class:`~repro.sim.delay_queue.FixedDelayQueue` behind one resident timer.
Each entry keeps the calendar key ``(expiry, seq)`` that a timer of its
own would have had, so each expiry fires as one engine event at the
place, and in the order among ties, that a timer per entry would.  The
calendar's shape differs (one entry, not one per port), which moves
when a crowded hot heap is compacted; no event moves with it
(docs/performance.md, "Where the event count could move").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Union

from ..kernel.constants import EADDRINUSE, SyscallError
from ..sim.delay_queue import FixedDelayQueue
from ..sim.resources import PRIO_SOFTIRQ
from .link import Network
from .tcp import TIME_WAIT_SECONDS, Listener, ReusePortGroup, TcpEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

EPHEMERAL_LOW = 1024
EPHEMERAL_HIGH = 61000  # exclusive; ~60k usable ports, the paper's limit


class NetStack:
    def __init__(self, kernel: "Kernel", network: Network,
                 host_name: Optional[str] = None,
                 time_wait_seconds: float = TIME_WAIT_SECONDS):
        self.kernel = kernel
        self.sim = kernel.sim
        self.network = network
        self.host_name = host_name if host_name is not None else kernel.name
        self.time_wait_seconds = time_wait_seconds
        #: counts live in the owning kernel's metrics registry, so one
        #: snapshot shows syscall counts and TCP counters side by side
        self.counters = kernel.metrics.counts
        self._open_gauge = kernel.metrics.gauge("tcp.open_connections")
        #: plain Listener, or a ReusePortGroup once SO_REUSEPORT sockets
        #: share the port
        self._listeners: Dict[int, Union[Listener, ReusePortGroup]] = {}
        #: sysctl-style accept-sharding policy for reuse-port groups:
        #: "hash" (client-port hash, the kernel's behaviour) or
        #: "round-robin"
        self.reuseport_dispatch = "hash"
        #: ports never handed out are ``[_next_port, EPHEMERAL_HIGH)``;
        #: released ones queue behind that range, in release order
        self._next_port = EPHEMERAL_LOW
        self._released_ports: Deque[int] = deque()
        #: TIME-WAIT entries, one port each (None for an end that owns
        #: none); raises SimulationError for a negative period
        self._time_wait = FixedDelayQueue(self.sim, time_wait_seconds,
                                          self._leave_time_wait)
        # per-unit softirq charges, summed once here instead of per packet
        fused = kernel.fused
        self._rx_per_segment = fused.net_rx_per_segment
        self._tx_per_segment = fused.net_tx_per_segment
        self._ack_tx_per_ack = kernel.costs.tcp_tx_packet
        self._ack_rx_per_ack = fused.net_ack_rx_per_ack
        kernel.net = self
        network.attach(self)

    # ------------------------------------------------------------------
    # ports
    # ------------------------------------------------------------------
    def alloc_ephemeral_port(self) -> int:
        port = self._next_port
        if port < EPHEMERAL_HIGH:
            self._next_port = port + 1
            return port
        if not self._released_ports:
            raise SyscallError(EADDRINUSE, "ephemeral ports exhausted")
        return self._released_ports.popleft()

    def release_port(self, port: int) -> None:
        if EPHEMERAL_LOW <= port < EPHEMERAL_HIGH:
            self._released_ports.append(port)

    @property
    def ports_available(self) -> int:
        return EPHEMERAL_HIGH - self._next_port + len(self._released_ports)

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def add_listener(self, port: int, backlog: int,
                     reuse: bool = False) -> Listener:
        """Bind a listener; with ``reuse`` several may share the port.

        The first reuse-port bind wraps the port in a
        :class:`ReusePortGroup`; later reuse binds join it.  Mixing a
        plain bind with an existing binding (or vice versa) fails with
        EADDRINUSE, as the real kernel's reuse-port check does.
        """
        entry = self._listeners.get(port)
        if entry is None:
            listener = Listener(self, port, backlog)
            if reuse:
                group = ReusePortGroup(self, port)
                group.add(listener)
                self._listeners[port] = group
            else:
                self._listeners[port] = listener
            return listener
        if reuse and isinstance(entry, ReusePortGroup):
            listener = Listener(self, port, backlog)
            entry.add(listener)
            return listener
        raise SyscallError(EADDRINUSE, f"port {port} already listening")

    def remove_listener(self, port: int,
                        member: Optional[Listener] = None) -> None:
        """Unbind; for reuse-port groups only the closing member leaves,
        and the port frees once the group empties."""
        entry = self._listeners.get(port)
        if isinstance(entry, ReusePortGroup) and member is not None:
            entry.discard(member)
            if entry.members:
                return
        self._listeners.pop(port, None)

    def get_listener(self, port: int):
        """The port's binding: a Listener or a ReusePortGroup."""
        return self._listeners.get(port)

    def deliver_syn(self, client_end: TcpEndpoint, port: int) -> None:
        self.charge_rx(1)
        listener = self._listeners.get(port)
        if isinstance(listener, ReusePortGroup):
            listener = listener.select(client_end, self.reuseport_dispatch)
        if listener is None:
            self.counters["tcp.syn_refused"] += 1
            self.charge_tx(1)  # the RST
            client_end.syn_refused()
            return
        listener.handle_syn(client_end)

    # ------------------------------------------------------------------
    # connection lifecycle accounting
    # ------------------------------------------------------------------
    @property
    def open_connections(self) -> int:
        return int(self._open_gauge.value)

    def connection_opened(self) -> None:
        self._open_gauge.inc()

    @property
    def time_wait_count(self) -> int:
        return len(self._time_wait)

    def connection_closed(self, endpoint: TcpEndpoint, time_wait: bool) -> None:
        self._open_gauge.set(max(0, self._open_gauge.value - 1))
        port = endpoint.local_port if endpoint.owns_port else None
        if time_wait:
            self.counters["tcp.time_wait_entered"] += 1
            # the entry holds the port, never the endpoint: a closed
            # connection's memory goes when the connection does
            self._time_wait.append(port)
        elif port is not None:
            self.release_port(port)

    def _leave_time_wait(self, port: Optional[int]) -> None:
        if port is not None:
            self.release_port(port)

    # ------------------------------------------------------------------
    # CPU charging (softirq context at this host)
    # ------------------------------------------------------------------
    def charge_tx(self, segments: int) -> None:
        self.kernel.charge_softirq(
            segments * self._tx_per_segment, "net.tx")

    def charge_rx(self, segments: int) -> None:
        if self.kernel.causal.enabled:
            self.kernel.causal.packet(self.kernel.sim.now, segments)
        self.kernel.charge_softirq(
            segments * self._rx_per_segment, "net.rx")

    def charge_ack_tx(self, acks: int) -> None:
        self.kernel.charge_softirq(acks * self._ack_tx_per_ack, "net.ack")

    def charge_ack_rx(self, acks: int) -> None:
        self.kernel.charge_softirq(
            acks * self._ack_rx_per_ack, "net.ack")

    def charge_rx_ack(self, segments: int, acks: int) -> None:
        """Fused data-rx + delayed-ACK-tx softirq pair.

        ``receive_data`` always issues these two charges back to back at
        the same instant from the same (synchronous) caller, so they fuse
        into one grant: same FIFO slices, one completion Event.
        """
        kernel = self.kernel
        if kernel.causal.enabled:
            kernel.causal.packet(kernel.sim.now, segments)
        kernel.cpu.consume_parts(
            (("net.rx", segments * self._rx_per_segment, None),
             ("net.ack", acks * self._ack_tx_per_ack, None)),
            PRIO_SOFTIRQ, nowait=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<NetStack {self.host_name!r} open={self.open_connections} "
                f"tw={self.time_wait_count}>")
