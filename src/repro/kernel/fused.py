"""Precomputed fused-charge cost tables.

The fused-charge API (:meth:`repro.sim.resources.CPU.consume_parts`)
lets a syscall that used to issue k sequential micro-grants issue one
grant whose parts still occupy individual FIFO slices but share a single
completion Event.  The part tuples themselves are pure functions of the
cost model, so each kernel builds this table once at construction
(``kernel.fused``) instead of re-deriving ``(category, seconds,
breakdown)`` tuples and per-unit coefficient sums on every syscall.
A single coefficient is read off the cost model itself
(``kernel.costs``), under its one name.

Every entry here is issued as one fused grant on uniprocessor, SMP and
traced kernels alike.  See docs/performance.md for why that is
equivalent to charging the parts one by one (part-per-slice scheduling
keeps softirq interposition and all measured accounting byte-identical).
"""

from __future__ import annotations

from typing import Tuple

from .costs import CostModel

#: a fused part: (category, seconds, profiler breakdown or None)
Part = Tuple[str, float, object]


class FusedCostTable:
    """Per-kernel precomputed part tuples and per-unit coefficient sums."""

    __slots__ = (
        "entry_part",
        "close_parts", "socket_parts", "fcntl_parts", "connect_parts",
        "epoll_ctl_parts",
        "net_rx_per_segment", "net_tx_per_segment", "net_ack_rx_per_ack",
    )

    def __init__(self, costs: CostModel):
        entry = costs.syscall_entry
        self.entry_part: Part = ("syscall", entry, None)
        # syscall-entry + body pairs whose body cost is fd-independent
        self.close_parts = (self.entry_part,
                            ("close", costs.close_op, None))
        self.socket_parts = (self.entry_part,
                             ("socket",
                              costs.socket_create + costs.fd_alloc, None))
        self.fcntl_parts = (self.entry_part,
                            ("fcntl", costs.fcntl_op, None))
        self.connect_parts = (self.entry_part,
                              ("connect", costs.connect_op, None))
        self.epoll_ctl_parts = (self.entry_part,
                                ("epoll.ctl", costs.epoll_ctl_op, None))
        # net softirq per-unit sums (charge = units * per_unit)
        self.net_rx_per_segment = costs.tcp_rx_packet + costs.irq_per_packet
        self.net_tx_per_segment = costs.tcp_tx_packet + costs.irq_per_packet
        self.net_ack_rx_per_ack = costs.tcp_rx_packet + costs.irq_per_packet
