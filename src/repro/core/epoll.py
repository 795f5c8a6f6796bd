"""A simulated Linux ``epoll``: the mechanism the paper's line of work
led to (``/dev/epoll`` appeared months after publication and became the
``epoll_*`` syscalls in Linux 2.5).

Structurally this is ``/dev/poll`` with a syscall control surface and
stricter semantics, built on the same in-kernel pieces -- one
:class:`~repro.core.interest_set.InterestSet` per epoll instance and
the section-3.2 backmap hint machinery for edge detection:

* ``epoll_ctl(ADD/MOD/DEL)`` mutates one interest per syscall (no
  batched ``write()``), with real errno semantics: ``EEXIST`` on a
  duplicate add, ``ENOENT`` on modifying/deleting an absent fd;
* ``epoll_wait`` returns only ready ``(fd, revents)`` pairs; hinted
  entries are the only ones whose driver ``poll`` callback runs, so
  wait cost scales with activity, not interest-set size;
* *level-triggered* entries that were reported ready stay in a ready
  cache and are re-evaluated on every wait (exactly the /dev/poll
  cached-ready rule); *edge-triggered* entries (``EPOLLET``) drop out
  of the cache once reported and stay silent until the next driver
  hint;
* closing a watched descriptor cleans its interest up automatically at
  the next scan -- unlike ``/dev/poll`` there is no ``POLLREMOVE``
  bookkeeping for the application, and no stale ``POLLNVAL`` results.

Cost model entries (justified in ``docs/cost_model.md``):
``epoll_ctl_op``, ``epoll_wait_base``, ``epoll_ready_check``,
``epoll_copyout_per_event``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..kernel.constants import (
    EBADF,
    EEXIST,
    EINVAL,
    ENOENT,
    POLL_ALWAYS,
    POLLREMOVE,
    SyscallError,
)
from ..kernel.file import File
from ..sim.process import wait_with_timeout
from ..sim.resources import PRIO_USER
from .backmap import BackmapLock, register_backmap, unregister_backmap
from .interest_set import Interest, InterestSet

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


class EpollFile(File):
    """One epoll instance: an interest set plus a ready cache."""

    file_type = "epoll"
    supports_hints = False  # nesting epoll instances is not modelled

    def __init__(self, kernel: "Kernel"):
        super().__init__(kernel, name="epoll")
        self.interests = InterestSet(kind="hash")
        self.lock = BackmapLock(kernel)
        self.stats = EpollStats()
        self._hinted: List[Interest] = []
        self._ready_cache: List[Interest] = []
        #: interests on drivers without hint support: always re-checked
        self._nohint: List[Interest] = []
        self._batch_hist = kernel.metrics.histogram("epoll.ready_batch")

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
            self._remove_entry(existing)
        entry = self.interests.update(fd, events, file)
        register_backmap(file, entry, self.lock, self._on_hint)
        # closing the descriptor marks the entry for collection at the
        # next scan -- the application does no POLLREMOVE bookkeeping
        entry.close_cb = lambda _file, entry=entry: self._on_close(entry)
        file.add_close_listener(entry.close_cb)
        if not file.supports_hints:
            self._nohint.append(entry)
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
        self._remove_entry(entry)
        self.stats.ctl_dels += 1

    def _remove_entry(self, entry: Interest) -> None:
        removed = self.interests.update(entry.fd, POLLREMOVE, None)  # type: ignore[arg-type]
        if removed is not None:
            self._detach(removed)

    def _detach(self, entry: Interest) -> None:
        if entry.listener is not None and entry.file is not None:
            unregister_backmap(entry.file, entry, self.lock)
        if entry.close_cb is not None and entry.file is not None:
            entry.file.remove_close_listener(entry.close_cb)
            entry.close_cb = None
        entry.hinted = False
        entry.in_ready_cache = False
        entry.cached_revents = 0

    # ------------------------------------------------------------------
    # hints (driver context)
    # ------------------------------------------------------------------
    def _on_hint(self, entry: Interest, band: int) -> None:
        costs = self.kernel.costs
        self.kernel.charge_softirq(
            costs.backmap_lock_acquire + costs.backmap_mark_hint,
            "epoll.hint")
        if entry.file is not None and entry.file.supports_hints:
            self._mark_hint(entry)
            if self.kernel.causal.enabled:
                self.kernel.causal.enqueue(
                    self.kernel.sim.now, entry.file, "epoll")
        self.wait_queue.wake_all(self, band)

    def _mark_hint(self, entry: Interest) -> None:
        if not entry.hinted:
            entry.hinted = True
            self._hinted.append(entry)

    def _on_close(self, entry: Interest) -> None:
        """Last close on a watched file: queue the entry so the next
        scan evaluates it, finds the file closed, and collects it."""
        if entry.active:
            self._mark_hint(entry)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def _evaluate(self, entry: Interest) -> int:
        if entry.file is None or entry.file.closed:
            # last close on a watched file: epoll cleans up by itself
            self._remove_entry(entry)
            self.stats.auto_removed_closed += 1
            return 0
        entry.cached_revents = entry.file.driver_poll() & (
            (entry.events & ~EPOLLET) | POLL_ALWAYS)
        return entry.cached_revents

    def _scan(self) -> Tuple[List[Interest], Tuple[Tuple[str, float], ...]]:
        """One epoll_wait scan: cached-ready + hinted + hint-less entries.

        Returns (ready entries, itemized charges) like
        :meth:`DevPollFile._scan <repro.core.devpoll.DevPollFile._scan>`:
        fixed ``wait_base`` work plus per-entry ``ready_check``
        callbacks, lumped into one ``epoll.wait`` CPU grant downstream.
        """
        costs = self.kernel.costs
        evaluated: List[Interest] = []
        # 1. level-triggered entries previously reported ready
        recheck = [e for e in self._ready_cache if e.active and not e.hinted]
        for entry in recheck:
            self._evaluate(entry)
            self.stats.ready_checks_cached += 1
        evaluated.extend(recheck)
        # 2. consume hints (new/modified interests and driver wakeups)
        hinted, self._hinted = self._hinted, []
        live_hinted = [e for e in hinted if e.active]
        for entry in live_hinted:
            entry.hinted = False
            self._evaluate(entry)
            self.stats.ready_checks_hinted += 1
        evaluated.extend(live_hinted)
        # 3. drivers without hint support are always re-checked
        self._nohint = [e for e in self._nohint if e.active]
        nohint = [e for e in self._nohint
                  if not e.in_ready_cache and not e.hinted]
        for entry in nohint:
            self._evaluate(entry)
            self.stats.ready_checks_nohint += 1
        evaluated.extend(nohint)

        checks = len(recheck) + len(live_hinted) + len(nohint)
        ready = [e for e in evaluated if e.active and e.cached_revents]
        for entry in self._ready_cache:
            entry.in_ready_cache = False
        self._ready_cache = ready
        for entry in ready:
            entry.in_ready_cache = True
        return ready, (("wait_base", costs.epoll_wait_base),
                       ("ready_check", costs.epoll_ready_check * checks))

    # ------------------------------------------------------------------
    # epoll_wait
    # ------------------------------------------------------------------
    def do_wait(self, task: "Task", max_events: int,
                timeout: Optional[float] = None):
        if max_events <= 0:
            raise SyscallError(EINVAL, "epoll_wait needs max_events > 0")
        sim = self.kernel.sim
        deadline = None if timeout is None else sim.now + timeout
        self.stats.waits += 1
        tracer = self.kernel.tracer
        span = (tracer.begin(sim.now, "epoll", "epoll_wait",
                             interests=len(self.interests),
                             track=sim.current_process)
                if tracer.enabled else None)
        while True:
            ready, charges = self._scan()
            scan_work = sum(seconds for _op, seconds in charges)
            # kernel-side harvest serializes on the big kernel lock, but
            # the hold is O(ready), not O(interests) -- the SMP
            # advantage over select/poll
            yield self.kernel.cpu.consume_parts(
                self.kernel.under_bkl(("epoll.wait", scan_work, charges)),
                PRIO_USER)
            if ready or timeout == 0:
                reported = ready[:max_events]
                for entry in reported:
                    if entry.events & EPOLLET:
                        # edge consumed: silent until the next hint
                        entry.in_ready_cache = False
                self._ready_cache = [e for e in self._ready_cache
                                     if e.in_ready_cache]
                self.stats.events_returned += len(reported)
                self._batch_hist.record(len(reported))
                yield from self._charge_copyout(len(reported))
                tracer.end(sim.now, span, ready=len(reported))
                return [(e.fd, e.cached_revents) for e in reported]
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - sim.now
                if remaining <= 0:
                    tracer.end(sim.now, span, ready=0)
                    return []
            wake = self.wait_queue.wait_event()
            yield from wait_with_timeout(sim, wake, remaining)

    def _charge_copyout(self, n: int):
        if n > 0:
            yield self.kernel.cpu.consume(
                self.kernel.costs.epoll_copyout_per_event * n, PRIO_USER,
                "epoll.copyout")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def poll_mask(self) -> int:
        """Nested polling of the epoll fd itself is not modelled."""
        return 0

    def on_release(self) -> None:
        """Last close: unregister every backmap listener."""
        for entry in list(self.interests):
            self._detach(entry)
        super().on_release()
