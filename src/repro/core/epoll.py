"""A simulated Linux ``epoll``: the mechanism the paper's line of work
led to (``/dev/epoll`` appeared months after publication and became the
``epoll_*`` syscalls in Linux 2.5).

Its in-kernel side is the one ``/dev/poll`` has: an
:class:`~repro.core.interest_set.InterestSet` per epoll instance scanned
through the section-3.2 hinted ready list
(:class:`~repro.core.readylist.ReadyListFile`).  What is epoll's own is
a syscall control surface and stricter semantics:

* ``epoll_ctl(ADD/MOD/DEL)`` mutates one interest per syscall (no
  batched ``write()``), with real errno semantics: ``EEXIST`` on a
  duplicate add, ``ENOENT`` on modifying/deleting an absent fd;
* ``epoll_wait`` returns only ready ``(fd, revents)`` pairs;
* *level-triggered* entries that were reported ready stay in the ready
  cache and are re-evaluated on every wait (the /dev/poll cached-ready
  rule); *edge-triggered* entries (``EPOLLET``) drop out of the cache
  once reported and stay silent until the next driver hint;
* closing a watched descriptor cleans its interest up automatically at
  the next scan -- unlike ``/dev/poll`` there is no ``POLLREMOVE``
  bookkeeping for the application, and no stale ``POLLNVAL`` results.

Cost model entries (justified in ``docs/cost_model.md``):
``epoll_ctl_op``, ``epoll_wait_base``, ``epoll_ready_check``,
``epoll_copyout_per_event``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..kernel.constants import EBADF, EEXIST, EINVAL, ENOENT, SyscallError
from ..sim.resources import PRIO_USER
from .interest_set import Interest
from .readylist import Charges, ReadyListFile

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task

# epoll_ctl operations (include/uapi/linux/eventpoll.h values)
EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2
EPOLL_CTL_MOD = 3

#: edge-triggered flag, OR'd into the event mask (the real bit 31)
EPOLLET = 1 << 31


@dataclass
class EpollStats:
    """Operation counters the tests and benches assert on."""

    ctl_adds: int = 0
    ctl_mods: int = 0
    ctl_dels: int = 0
    waits: int = 0
    ready_checks_cached: int = 0
    ready_checks_hinted: int = 0
    ready_checks_nohint: int = 0
    auto_removed_closed: int = 0
    events_returned: int = 0


class EpollFile(ReadyListFile):
    """One epoll instance: an interest set plus a ready cache."""

    file_type = "epoll"
    scan_op = "epoll.wait"
    hint_op = "epoll.hint"

    def __init__(self, kernel: "Kernel"):
        super().__init__(kernel, "epoll", "hash")
        self.stats = EpollStats()

    # ------------------------------------------------------------------
    # epoll_ctl
    # ------------------------------------------------------------------
    def ctl(self, task: "Task", op: int, fd: int, events: int = 0):
        """One ``epoll_ctl`` interest mutation: the syscall entry and
        ``epoll_ctl_op`` charged as one fused grant."""
        yield self.kernel.cpu.consume_parts(
            self.kernel.fused.epoll_ctl_parts, PRIO_USER)
        if op == EPOLL_CTL_ADD:
            self._ctl_add(task, fd, events)
        elif op == EPOLL_CTL_MOD:
            self._ctl_mod(task, fd, events)
        elif op == EPOLL_CTL_DEL:
            self._ctl_del(fd)
        else:
            raise SyscallError(EINVAL, f"unknown epoll_ctl op {op}")
        return 0

    def _ctl_add(self, task: "Task", fd: int, events: int) -> None:
        file = task.fdtable.lookup(fd)
        if file is None:
            raise SyscallError(EBADF, f"epoll_ctl: fd {fd} not open")
        existing = self.interests.lookup(fd)
        if existing is not None:
            if existing.file is file and not file.closed:
                raise SyscallError(EEXIST,
                                   f"epoll_ctl: fd {fd} already watched")
            # the fd number was reused for a new open file: the stale
            # interest is what auto-cleanup would have collected anyway
            self._remove(fd)
        entry = self.interests.update(fd, events, file)
        self._attach(file, entry)
        # closing the descriptor marks the entry for collection at the
        # next scan -- the application does no POLLREMOVE bookkeeping
        entry.close_cb = lambda _file, entry=entry: self._on_close(entry)
        file.add_close_listener(entry.close_cb)
        # a new interest must be evaluated at the next wait
        self._mark_hint(entry)
        self.stats.ctl_adds += 1

    def _ctl_mod(self, task: "Task", fd: int, events: int) -> None:
        entry = self.interests.lookup(fd)
        if entry is None:
            raise SyscallError(ENOENT, f"epoll_ctl: fd {fd} not watched")
        entry.events = events
        # a changed mask must be re-evaluated at the next wait
        self._mark_hint(entry)
        self.stats.ctl_mods += 1

    def _ctl_del(self, fd: int) -> None:
        entry = self.interests.lookup(fd)
        if entry is None:
            raise SyscallError(ENOENT, f"epoll_ctl: fd {fd} not watched")
        self._remove(fd)
        self.stats.ctl_dels += 1

    # ------------------------------------------------------------------
    # the ready list's epoll terms
    # ------------------------------------------------------------------
    def _on_close(self, entry: Interest) -> None:
        """Last close on a watched file: queue the entry so the next
        scan evaluates it, finds the file closed, and collects it."""
        if entry.active:
            self._mark_hint(entry)

    def _closed(self, entry: Interest) -> None:
        # last close on a watched file: epoll cleans up by itself
        self._remove(entry.fd)
        self.stats.auto_removed_closed += 1

    def _pass_parts(self, cached: int, hinted: int, nohint: int) -> Charges:
        """Fixed ``wait_base`` work plus per-entry ``ready_check``
        callbacks, lumped into one ``epoll.wait`` CPU grant."""
        costs = self.kernel.costs
        stats = self.stats
        stats.ready_checks_cached += cached
        stats.ready_checks_hinted += hinted
        stats.ready_checks_nohint += nohint
        return (("wait_base", costs.epoll_wait_base),
                ("ready_check",
                 costs.epoll_ready_check * (cached + hinted + nohint)))

    # ------------------------------------------------------------------
    # epoll_wait
    # ------------------------------------------------------------------
    def do_wait(self, task: "Task", max_events: int,
                timeout: Optional[float] = None):
        if max_events <= 0:
            raise SyscallError(EINVAL, "epoll_wait needs max_events > 0")
        sim = self.kernel.sim
        self.stats.waits += 1
        tracer = self.kernel.tracer
        span = (tracer.begin(sim.now, "epoll", "epoll_wait",
                             interests=len(self.interests),
                             track=sim.current_process)
                if tracer.enabled else None)
        ready = yield from self._harvest(timeout)
        if ready is None:
            tracer.end(sim.now, span, ready=0)
            return []
        reported = ready[:max_events]
        for entry in reported:
            if entry.events & EPOLLET:
                # edge consumed: silent until the next hint
                entry.in_ready_cache = False
        self._ready_cache = [e for e in self._ready_cache
                             if e.in_ready_cache]
        self.stats.events_returned += len(reported)
        self._batch_hist.record(len(reported))
        if reported:
            yield self.kernel.cpu.consume(
                self.kernel.costs.epoll_copyout_per_event * len(reported),
                PRIO_USER, "epoll.copyout")
        tracer.end(sim.now, span, ready=len(reported))
        return [(e.fd, e.cached_revents) for e in reported]
