"""The :class:`EventBackend` protocol and the string-keyed registry.

A backend owns one readiness-notification mechanism on behalf of one
server: the server declares interest (``register``/``modify``/
``unregister``) and blocks in ``wait``, which returns ``(fd, revents)``
pairs.  Everything mechanism-specific -- rebuilding a pollfd array,
staging a ``/dev/poll`` write batch, arming an RT signal, issuing
``epoll_ctl``, switching between signals and polling -- lives behind
this interface, so the server loop is written once (see
:meth:`repro.servers.base.BaseServer.event_loop`).

All mutating methods are generators (``yield from backend.register(...)``)
because some mechanisms pay syscalls for interest changes (``epoll_ctl``)
while others are free at declaration time and pay at ``wait`` (the
``poll`` backend rebuilds its array every loop).  Backends that do no
simulated work for an operation simply return without yielding.

Charge-sequence fidelity matters: every backend reproduces the CPU
charges of the server loop it replaced *exactly* -- same categories,
same amounts, same order -- so benchmark records for existing seeds are
byte-identical to the servers' own loops, phhttpd's and the hybrid's
included.

``wait`` takes a ``deadline`` (absolute sim time of the next idle
sweep) rather than a relative timeout because each mechanism computes
its timeout at a different point in its loop: ``poll``/``select``
convert after charging the per-fd array build (which advances simulated
time), ``/dev/poll``/rtsig/epoll convert on entry, and the hybrid after
flushing its staged ``/dev/poll`` updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Type


@dataclass
class BackendStats:
    """Per-backend operation counts (pure bookkeeping, never charged).

    Every backend reports the same set: interest mutations, waits,
    delivered events, *spurious* wakeups (a ``wait()`` that returned
    no real event -- timeouts and overflow sentinels included), and
    the running sum of fds registered at each wait, so
    ``registered_sum / waits`` is the mean watched-set size the
    mechanism had to cover per harvest.
    """

    registers: int = 0
    modifies: int = 0
    unregisters: int = 0
    waits: int = 0
    events: int = 0
    spurious_wakeups: int = 0
    registered_sum: int = 0


class EventBackend:
    """Base class for readiness-notification backends.

    Subclasses set :attr:`name`, implement the generator methods, and
    are registered via :func:`register_backend` (or the
    ``@register_backend`` idiom at module bottom).
    """

    #: registry key; also the metrics/label prefix
    name = "base"
    #: ``wait()`` may report an fd whose connection has since changed
    #: state; backends with ``strict_state_stale`` count such events as
    #: stale (the ``select`` loop's semantics), others silently skip.
    strict_state_stale = False
    #: ``wait()`` adds to the server's ``stats.loops`` itself (one per
    #: signal it dequeues, say) instead of the loop counting one per wait
    counts_loops = False
    #: arming an fd reports only readiness that arrives later, so the
    #: server reads once right after ``register()`` (RT signals)
    arming_misses_readiness = False
    #: highest usable fd count, or None when unbounded
    fd_capacity: Optional[int] = None

    def __init__(self, server) -> None:
        self.server = server
        self.stats = BackendStats()
        #: the backend whose stats and causal harvests this one's waits
        #: count under: itself, or a backend composing it (the hybrid)
        self.owner = self
        #: ``events.<name>.<op>`` counters; the tally builds each name
        #: once, so counting stays off the per-call string formatting
        self._counts = server.kernel.metrics.tally(f"events.{self.name}")

    # -- conveniences over the owning server ---------------------------

    @property
    def kernel(self):
        return self.server.kernel

    @property
    def sim(self):
        return self.server.kernel.sim

    @property
    def sys(self):
        return self.server.sys

    @property
    def costs(self):
        return self.server.kernel.costs

    def _count(self, op: str, by: int = 1) -> None:
        self._counts.inc(op, by)

    def _deadline_timeout(self, deadline: Optional[float],
                          timeout: Optional[float]) -> Optional[float]:
        """Relative timeout from an absolute deadline, clamped at 0."""
        if timeout is not None or deadline is None:
            return timeout
        return max(0.0, deadline - self.sim.now)

    # -- the protocol --------------------------------------------------

    def setup(self) -> Generator:
        """One-time initialization, after the listener socket exists."""
        self._count("setups")
        return
        yield  # pragma: no cover - marks this as a generator

    def register(self, fd: int, mask: int) -> Generator:
        """Declare interest in ``fd`` for the events in ``mask``."""
        raise NotImplementedError

    def modify(self, fd: int, mask: int) -> Generator:
        """Replace the interest mask of an already-registered ``fd``."""
        raise NotImplementedError

    def unregister(self, fd: int) -> Generator:
        """Explicitly withdraw interest in ``fd`` (may cost a syscall)."""
        self.stats.unregisters += 1
        self._count("unregisters")
        self.interest_forget(fd)
        return
        yield  # pragma: no cover - marks this as a generator

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        """Block until readiness; returns a list of ``(fd, revents)``."""
        raise NotImplementedError

    def recover_overflow(self) -> Generator:
        """Recover after ``wait`` reported the ``RTSIG_OVERFLOW`` sentinel:
        readiness events were lost and must be found another way."""
        raise NotImplementedError(f"{self.name} cannot recover lost events")

    def dispatch_parts(self) -> tuple:
        """Per-delivered-event bookkeeping charge, as fused-grant parts.

        The ``poll``/``select`` servers re-scan their whole watch array
        per handled event (the paper's fdwatch overhead); the server
        loop fuses these parts behind its own ``app.dispatch`` charge
        (one grant, one calendar round-trip per delivered event).
        Ready-list mechanisms pay nothing here: the empty tuple.
        """
        return ()

    def interest_forget(self, fd: int) -> None:
        """Drop local interest state for a closing fd (never charged).

        Called from :meth:`BaseServer.close_conn
        <repro.servers.base.BaseServer.close_conn>`; mechanisms whose
        kernel side cleans up on ``close()`` (epoll, RT signals) leave
        this a no-op.
        """

    # -- shared accounting helpers ------------------------------------

    def _note_wait(self, events, registered: int) -> None:
        """Account one completed ``wait()``.

        ``events`` is the ``(fd, revents)`` list about to be returned;
        ``registered`` is how many fds the mechanism had registered for
        this wait.  Real events exclude negative-fd sentinels (the
        rtsig overflow marker).  When the causal ledger is enabled the
        harvest is stamped here -- one shared hook for all backends.
        Everything is counted under :attr:`owner`.
        """
        owner = self.owner
        stats = owner.stats
        ready_count = len(events)
        real_count = sum(1 for fd, _band in events if fd >= 0)
        stats.waits += 1
        stats.events += ready_count
        stats.registered_sum += registered
        if real_count == 0:
            stats.spurious_wakeups += 1
        owner._count("waits")
        if ready_count:
            owner._count("events", ready_count)
        if self.kernel.causal.enabled:
            self.kernel.causal.harvest(self.sim.now, owner.name, events,
                                       self.server.task, registered)


#: string-keyed backend registry; populated by the implementation modules
BACKENDS: Dict[str, Type[EventBackend]] = {}


def register_backend(cls: Type[EventBackend]) -> Type[EventBackend]:
    """Class decorator adding a backend to :data:`BACKENDS` by name."""
    BACKENDS[cls.name] = cls
    return cls


def make_backend(name: str, server) -> EventBackend:
    """Instantiate the backend registered under ``name`` for a server."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown event backend {name!r}; choose from "
                         f"{sorted(BACKENDS)}") from None
    return cls(server)
