"""RT-signal backend: per-fd POSIX real-time signals (phhttpd's model).

Section 2's mechanism: each descriptor is armed with
``fcntl(F_SETOWN/F_SETSIG)`` + ``O_ASYNC`` and a cyclically-unique RT
signal number; readiness arrives as queued ``siginfo`` payloads picked
up with ``sigtimedwait4``.  Events are *hints* -- they may be stale by
the time they are dequeued -- and the fixed-size signal queue can
overflow, which the kernel reports by raising plain ``SIGIO``.

``wait`` translates each ``siginfo`` into an ``(fd, band)`` pair; a
queue overflow is surfaced as the sentinel fd :data:`RTSIG_OVERFLOW`
(and any remaining dequeued events are dropped, as phhttpd's loop does)
so the server can run its recovery path -- phhttpd hands every
connection to a ``poll()`` sibling and never switches back.  A signal
server counts one loop per signal it handles, so ``wait`` adds the
dequeued count to the server's ``stats.loops``; and arming a descriptor
reports nothing about data that arrived before it, so the server reads
once right after ``register``.

There is nothing to clean up on close: a signal queued for a dead fd is
detected as stale at dispatch, so ``interest_forget`` is a no-op.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.rtsig import SignalNumberAllocator, arm_rtsig
from ..kernel.constants import SIGIO
from .base import EventBackend, register_backend

#: sentinel "fd" reported by ``wait`` when the RT signal queue overflowed
RTSIG_OVERFLOW = -1


@register_backend
class RtsigBackend(EventBackend):
    name = "rtsig"
    counts_loops = True
    arming_misses_readiness = True

    def __init__(self, server) -> None:
        super().__init__(server)
        cfg = server.config
        self.allocator = SignalNumberAllocator(
            avoid_linuxthreads=getattr(cfg, "avoid_linuxthreads", True),
            per_fd_unique=getattr(cfg, "per_fd_unique_signals", True))
        self.listen_signo = 0

    @property
    def signal_batch(self) -> int:
        return getattr(self.server.config, "signal_batch", 1)

    def setup(self) -> Generator:
        yield from super().setup()
        self.listen_signo = self.allocator.allocate()
        yield from arm_rtsig(self.sys, self.server.listen_fd,
                             self.listen_signo)

    def register(self, fd: int, mask: int) -> Generator:
        """Arm ``fd`` with a fresh RT signal number.

        The mask is ignored: RT-signal delivery always reports the full
        band of whatever happened on the descriptor.
        """
        self.stats.registers += 1
        self._counts[self._registers_key] += 1
        yield from arm_rtsig(self.sys, fd, self.allocator.allocate())

    def modify(self, fd: int, mask: int) -> Generator:
        # nothing to do: the signal reports all bands regardless of mask
        self.stats.modifies += 1
        self._counts[self._modifies_key] += 1
        return
        yield  # pragma: no cover - marks this as a generator

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        timeout = self._deadline_timeout(deadline, timeout)
        batch = self.signal_batch
        if max_events is not None:
            batch = min(batch, max_events)
        sigset = self.allocator.sigset() | {SIGIO}
        infos = yield from self.sys.sigtimedwait4(sigset, batch, timeout)
        events = []
        for info in infos:
            if info.si_signo == SIGIO:
                # queue overflow: surface the sentinel and drop the rest
                events.append((RTSIG_OVERFLOW, 0))
                break
            events.append((info.si_fd, info.si_band))
        self.server.stats.loops += len(events)
        # registered = armed connections plus the listener
        self._note_wait(events, len(self.server.conns) + 1)
        return events
