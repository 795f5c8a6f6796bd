"""The hinted ready list that ``/dev/poll`` and ``epoll`` share (section 3.2).

An interest set whose wait cost scales with activity: drivers that
``supports_hints`` mark a backmap hint on every status change, and a
scan invokes the driver poll callback of only

1. the entries the last scan found ready -- there are no ready->not-ready
   hints, so "a cached result indicating readiness has to be reevaluated
   each time";
2. the hinted entries: driver wakeups and new or changed interests;
3. the entries of drivers without hint support, which are always scanned.

Every other entry keeps its cached not-ready result; that is the whole
point of hints.  :class:`ReadyListFile` owns that policy, the backmap
wiring, and the harvest loop (scan, charge under the BKL, sleep until a
hint wakes the file or the deadline passes).  A subclass supplies its
control surface, what a closed descriptor leaves behind, and the charge
parts and stats fields of the three passes:
:class:`~repro.core.devpoll.DevPollFile` and
:class:`~repro.core.epoll.EpollFile`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..kernel.constants import POLL_ALWAYS, POLLOUT, POLLREMOVE
from ..kernel.file import File
from ..sim.process import wait_with_timeout
from ..sim.resources import PRIO_USER
from .backmap import BackmapLock, register_backmap, unregister_backmap
from .interest_set import Interest, InterestSet

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

#: itemized (operation, seconds) charges of one scan
Charges = Tuple[Tuple[str, float], ...]


class ReadyListFile(File):
    """An interest set scanned through the hinted ready list.

    ``file_type`` names the causal-ledger queue and the ready-batch
    histogram; ``scan_op`` and ``hint_op`` are the CPU categories of a
    scan's grant and of a driver hint.
    """

    scan_op: str
    hint_op: str

    def __init__(self, kernel: "Kernel", name: str, interest_kind: str):
        super().__init__(kernel, name=name)
        self.interests = InterestSet(kind=interest_kind)
        self.lock = BackmapLock(kernel)
        self._hinted: List[Interest] = []
        self._ready_cache: List[Interest] = []
        #: interests on drivers without hint support: always scanned
        self._nohint: List[Interest] = []
        self._batch_hist = kernel.metrics.histogram(
            f"{self.file_type}.ready_batch")

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _closed(self, entry: Interest) -> None:
        """A scan found ``entry``'s descriptor closed."""
        raise NotImplementedError

    def _pass_parts(self, cached: int, hinted: int, nohint: int) -> Charges:
        """Count one scan's callbacks per pass; return its charges."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # interest-set maintenance
    # ------------------------------------------------------------------
    def _attach(self, file: File, entry: Interest) -> None:
        """Wire a new interest to its file's backmap."""
        register_backmap(file, entry, self.lock, self._on_hint)
        if not file.supports_hints:
            self._nohint.append(entry)

    def _remove(self, fd: int) -> None:
        entry = self.interests.update(fd, POLLREMOVE, None)  # type: ignore[arg-type]
        if entry is not None:
            self._detach(entry)

    def _detach(self, entry: Interest) -> None:
        file = entry.file
        if file is not None:
            if entry.listener is not None:
                unregister_backmap(file, entry, self.lock)
            if entry.close_cb is not None:
                file.remove_close_listener(entry.close_cb)
                entry.close_cb = None
        entry.hinted = False
        entry.in_ready_cache = False
        entry.cached_revents = 0

    # ------------------------------------------------------------------
    # hints (driver context)
    # ------------------------------------------------------------------
    def _on_hint(self, entry: Interest, band: int) -> None:
        kernel = self.kernel
        costs = kernel.costs
        kernel.charge_softirq(
            costs.backmap_lock_acquire + costs.backmap_mark_hint, self.hint_op)
        if entry.file is not None and entry.file.supports_hints:
            self._mark_hint(entry)
            if kernel.causal.enabled:
                kernel.causal.enqueue(kernel.sim.now, entry.file,
                                      self.file_type)
        # wake sleepers regardless of hint support
        self._wake(band)

    def _wake(self, band: int) -> None:
        self.wait_queue.wake_all(self, band)

    def _mark_hint(self, entry: Interest) -> None:
        if not entry.hinted:
            entry.hinted = True
            self._hinted.append(entry)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def _evaluate(self, entry: Interest) -> None:
        """Refresh ``entry``'s cached result from its driver.

        The simulated cost counts every callback, but the host work is
        O(changed): a ``quiet`` socket (see :mod:`repro.kernel.file`)
        asked nothing of ``POLLOUT`` is counted without its callback
        being made.  Only ``EPOLLET`` (bit 31) of an event mask is no
        readiness bit, and no driver reports it.
        """
        file = entry.file
        if file is None or file.closed:
            self._closed(entry)
        elif file.quiet and not entry.events & POLLOUT:
            file.settled_callbacks += 1
            entry.cached_revents = 0
        else:
            entry.cached_revents = file.driver_poll() & (
                entry.events | POLL_ALWAYS)

    def _scan(self) -> Tuple[List[Interest], Charges]:
        """One scan of the three passes; returns (ready entries, charges)."""
        # 1. re-evaluate what the last scan found ready
        recheck = [e for e in self._ready_cache if e.active and not e.hinted]
        for entry in recheck:
            self._evaluate(entry)
        # 2. consume hints
        hinted, self._hinted = self._hinted, []
        live_hinted = [e for e in hinted if e.active]
        # 3. drivers without hint support are always scanned, but not
        # twice: picked while pass 2's hints still mark what it evaluates
        self._nohint = [e for e in self._nohint if e.active]
        nohint = [e for e in self._nohint
                  if not e.in_ready_cache and not e.hinted]
        for entry in live_hinted:
            entry.hinted = False
            self._evaluate(entry)
        for entry in nohint:
            self._evaluate(entry)
        ready = [e for e in recheck + live_hinted + nohint if e.cached_revents]
        self._cache_ready(ready)
        return ready, self._pass_parts(len(recheck), len(live_hinted),
                                       len(nohint))

    def _cache_ready(self, ready: List[Interest]) -> None:
        for entry in self._ready_cache:
            entry.in_ready_cache = False
        self._ready_cache = ready
        for entry in ready:
            entry.in_ready_cache = True

    def _harvest(self, timeout: Optional[float]):
        """Scan until something is ready, sleeping between scans.

        Returns the ready entries (empty after a zero ``timeout`` found
        none), or None once ``timeout`` has passed.
        """
        kernel = self.kernel
        sim = kernel.sim
        deadline = None if timeout is None else sim.now + timeout
        while True:
            ready, charges = self._scan()
            scan_work = sum(seconds for _op, seconds in charges)
            # the harvest ran under the big kernel lock in 2.2; the
            # hint-driven scan is O(ready), so the serialized hold is
            # short -- the SMP advantage over select/poll
            yield kernel.cpu.consume_parts(
                kernel.under_bkl((self.scan_op, scan_work, charges)),
                PRIO_USER)
            if ready or timeout == 0:
                return ready
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - sim.now
                if remaining <= 0:
                    return None
            wake = self.wait_queue.wait_event()
            yield from wait_with_timeout(sim, wake, remaining)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def poll_mask(self) -> int:
        """The file itself is not pollable (as /dev/poll on Solaris)."""
        return 0

    def on_release(self) -> None:
        """Last close: unregister every backmap listener."""
        for entry in list(self.interests):
            self._detach(entry)
        super().on_release()
