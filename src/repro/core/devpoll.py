"""The /dev/poll character device (sections 3.1-3.3).

Usage mirrors the paper exactly::

    dp = yield from sys.open_devpoll()
    # build the interest set incrementally with write()
    yield from sys.write(dp, [PollFd(fd, POLLIN)])
    # remove with the POLLREMOVE flag
    yield from sys.write(dp, [PollFd(fd, POLLREMOVE)])
    # optional shared result area (section 3.3)
    yield from sys.ioctl(dp, DP_ALLOC, 512)
    area = yield from sys.mmap_devpoll(dp)
    # wait for events
    ready = yield from sys.ioctl(dp, DP_POLL, DvPoll(dp_fds=None, dp_nfds=512,
                                                     dp_timeout=1.0))

Semantics implemented from the paper:

* each ``open()`` of /dev/poll yields an independent interest set;
* ``write()`` adds, modifies (new events **replace** the old interest;
  ``DevPollConfig.solaris_compat`` switches to Solaris' OR behaviour),
  and removes (``POLLREMOVE``) interests; the set lives in a hash table
  that doubles at average bucket size two and never shrinks;
* device-driver hints (section 3.2): drivers that ``supports_hints``
  mark a backmap hint on status changes; ``DP_POLL`` then only invokes
  driver poll callbacks for hinted entries, newly added/modified entries,
  entries whose *cached* result said ready (no ready->not-ready hints
  exist, so cached readiness "has to be reevaluated each time"), and
  entries of non-hinting drivers;
* the mmap result area (section 3.3): ``DP_ALLOC`` + ``mmap`` share the
  result buffer, eliminating the per-ready copy-out charge;
* ``DP_POLL_WRITE`` applies an update batch and polls in one system call
  (the section 6 future-work combined operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..kernel.constants import (
    EBADF,
    EINVAL,
    ENOSPC,
    POLL_ALWAYS,
    POLLNVAL,
    POLLOUT,
    POLLREMOVE,
    SyscallError,
)
from ..kernel.file import File
from ..sim.process import wait_with_timeout
from ..sim.resources import PRIO_USER
from .backmap import BackmapLock, register_backmap, unregister_backmap
from .interest_set import Interest, InterestSet
from .pollfd import DP_ALLOC, DP_FREE, DP_POLL, DP_POLL_WRITE, DvPoll, PollFd

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.task import Task


@dataclass
class DevPollConfig:
    """Behavioural knobs; defaults are the paper's full design."""

    use_hints: bool = True
    solaris_compat: bool = False          # OR writes instead of replacing
    interest_kind: str = "hash"           # "hash" | "linear" (ablation)
    #: section 6 future work: "It may also help to provide the option of
    #: waking only one thread, instead of all of them" -- when several
    #: tasks block in DP_POLL on one shared /dev/poll (a shared work
    #: queue over the mmap result area), an event wakes a single sleeper
    #: instead of thundering the herd.
    wake_one: bool = False


@dataclass
class DevPollStats:
    """Operation counters the tests and ablations assert on."""

    updates: int = 0
    polls: int = 0
    driver_callbacks_hinted: int = 0
    driver_callbacks_ready_recheck: int = 0
    driver_callbacks_full: int = 0
    results_returned: int = 0
    results_via_mmap: int = 0


class ResultArea:
    """The kernel/application shared mapping for poll results."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise SyscallError(EINVAL, "DP_ALLOC capacity must be positive")
        self.capacity = capacity
        self.entries: List[PollFd] = [PollFd(-1) for _ in range(capacity)]
        self.count = 0

    def results(self) -> List[PollFd]:
        """The application-side view of the latest poll results."""
        return self.entries[: self.count]


class DevPollFile(File):
    """One open instance of the /dev/poll device (one interest set)."""

    file_type = "devpoll"
    supports_hints = False  # /dev/poll itself is not pollable
    fuse_write_entry = True  # do_write takes the fused entry_part kwarg

    def __init__(self, kernel: "Kernel", config: Optional[DevPollConfig] = None):
        super().__init__(kernel, name="/dev/poll")
        self.config = config if config is not None else DevPollConfig()
        self.interests = InterestSet(kind=self.config.interest_kind)
        self.lock = BackmapLock(kernel)
        self.stats = DevPollStats()
        self._hinted: List[Interest] = []
        self._ready_cache: List[Interest] = []
        #: interests on drivers without hint support: always fully scanned
        self._nohint: List[Interest] = []
        self.result_area: Optional[ResultArea] = None
        self.mapped = False
        self._batch_hist = kernel.metrics.histogram(
            "devpoll.ready_batch", buckets=(1, 2, 4, 8, 16, 32, 64, 128,
                                            256, 512, 1024))

    # ------------------------------------------------------------------
    # interest-set maintenance (write())
    # ------------------------------------------------------------------
    def do_write(self, task: "Task", updates: Sequence[PollFd],
                 entry_part=None):
        """write() of a pollfd array: add/modify/remove interests.

        With ``entry_part`` (a plain ``write()``; ``DP_POLL_WRITE`` has
        already paid its entry) the syscall-entry charge fuses with the
        per-fd update charge into one grant.
        """
        costs = self.kernel.costs
        if updates:
            update_cost = costs.devpoll_update_per_fd * len(updates)
            if entry_part is not None:
                yield self.kernel.cpu.consume_parts(
                    (entry_part,
                     ("devpoll.update", update_cost, None)), PRIO_USER)
            else:
                yield self.kernel.cpu.consume(
                    update_cost, PRIO_USER, "devpoll.update")
        for pfd in updates:
            self._apply_update(task, pfd)
        self.stats.updates += len(updates)
        return len(updates)

    def _apply_update(self, task: "Task", pfd: PollFd) -> None:
        if pfd.events & POLLREMOVE:
            entry = self.interests.update(pfd.fd, POLLREMOVE, None)  # type: ignore[arg-type]
            if entry is not None:
                self._detach(entry)
            return
        file = task.fdtable.lookup(pfd.fd)
        if file is None:
            raise SyscallError(EBADF, f"/dev/poll write: fd {pfd.fd} not open")
        existing = self.interests.lookup(pfd.fd)
        entry = self.interests.update(
            pfd.fd, pfd.events, file, or_mode=self.config.solaris_compat)
        if existing is None:
            register_backmap(file, entry, self.lock, self._on_hint)
            if not file.supports_hints:
                self._nohint.append(entry)
        # new and modified entries must be evaluated at the next scan
        self._mark_hint(entry)

    def _detach(self, entry: Interest) -> None:
        if entry.listener is not None and entry.file is not None:
            unregister_backmap(entry.file, entry, self.lock)
        entry.hinted = False
        entry.in_ready_cache = False
        entry.cached_revents = 0

    # ------------------------------------------------------------------
    # hints (driver context)
    # ------------------------------------------------------------------
    def _on_hint(self, entry: Interest, band: int) -> None:
        costs = self.kernel.costs
        self.kernel.charge_softirq(
            costs.backmap_lock_acquire + costs.backmap_mark_hint, "devpoll.hint")
        if entry.file is not None and entry.file.supports_hints:
            self._mark_hint(entry)
            if self.kernel.causal.enabled:
                self.kernel.causal.enqueue(
                    self.kernel.sim.now, entry.file, "devpoll")
        # wake DP_POLL sleepers regardless of hint support
        if self.config.wake_one:
            self.wait_queue.wake_one(self, band)
        else:
            self.wait_queue.wake_all(self, band)

    def _mark_hint(self, entry: Interest) -> None:
        if not entry.hinted:
            entry.hinted = True
            self._hinted.append(entry)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def _evaluate(self, entry: Interest) -> int:
        file = entry.file
        if file is None or file.closed:
            entry.cached_revents = POLLNVAL
        elif file.quiet and not entry.events & POLLOUT:
            file.poll_callback_count += 1
            entry.cached_revents = 0
        else:
            entry.cached_revents = file.driver_poll() & (
                entry.events | POLL_ALWAYS)
        return entry.cached_revents

    def _scan(self) -> Tuple[List[Interest], Tuple[Tuple[str, float], ...]]:
        """One DP_POLL scan pass.

        Returns (ready entries, itemized CPU charges) where the charges
        are (operation, seconds) parts -- fixed ``poll_base`` work plus
        the per-fd ``driver_callback`` invocations -- that the caller
        lumps into one "devpoll.scan" CPU grant but an attached profiler
        sees itemized.  With hints on, only cached-ready, hinted, and
        non-hinting-driver entries invoke the driver callback; otherwise
        every interest does.  Either way the simulated cost counts every
        callback, but the host work is O(changed): a ``quiet`` socket
        (see :mod:`repro.kernel.file`) asked nothing of ``POLLOUT`` is
        counted and charged without its callback being made.
        """
        costs = self.kernel.costs
        callback_charge = 0.0
        ready: List[Interest] = []

        if self.config.use_hints:
            evaluated: List[Interest] = []
            # 1. re-evaluate previously-ready cached results ("a cached
            #    result indicating readiness has to be reevaluated")
            recheck = [e for e in self._ready_cache if e.active and not e.hinted]
            for entry in recheck:
                self._evaluate(entry)
                self.stats.driver_callbacks_ready_recheck += 1
            callback_charge += costs.devpoll_cached_ready_recheck * len(recheck)
            evaluated.extend(recheck)
            # 2. consume hints
            hinted, self._hinted = self._hinted, []
            live_hinted = [e for e in hinted if e.active]
            for entry in live_hinted:
                entry.hinted = False
                self._evaluate(entry)
                self.stats.driver_callbacks_hinted += 1
            callback_charge += costs.devpoll_hint_scan * len(live_hinted)
            evaluated.extend(live_hinted)
            # 3. drivers without hint support are always scanned
            self._nohint = [e for e in self._nohint if e.active]
            nohint = [e for e in self._nohint
                      if not e.in_ready_cache and not e.hinted]
            for entry in nohint:
                self._evaluate(entry)
                self.stats.driver_callbacks_full += 1
            callback_charge += costs.devpoll_full_scan_per_fd * len(nohint)
            evaluated.extend(nohint)
            # Entries not evaluated this pass were neither cached-ready,
            # hinted, nor hint-less, so their cached not-ready result
            # stands -- that is the whole point of hints.
            ready = [e for e in evaluated if e.cached_revents]
        else:
            for entry in self.interests:
                entry.hinted = False
                self._evaluate(entry)
                self.stats.driver_callbacks_full += 1
                if entry.cached_revents:
                    ready.append(entry)
            self._hinted = []
            callback_charge += costs.devpoll_full_scan_per_fd * len(self.interests)

        for entry in self._ready_cache:
            entry.in_ready_cache = False
        self._ready_cache = ready
        for entry in ready:
            entry.in_ready_cache = True
        return ready, (("poll_base", costs.devpoll_poll_base),
                       ("driver_callback", callback_charge))

    # ------------------------------------------------------------------
    # ioctl()
    # ------------------------------------------------------------------
    def do_ioctl(self, task: "Task", op: int, arg=None):
        """DP_ALLOC / DP_FREE / DP_POLL / DP_POLL_WRITE dispatch."""
        if op == DP_ALLOC:
            if False:  # pragma: no cover - keeps this a generator
                yield
            self.result_area = ResultArea(int(arg))
            return self.result_area.capacity
        if op == DP_FREE:
            if False:  # pragma: no cover
                yield
            self.result_area = None
            self.mapped = False
            return 0
        if op == DP_POLL:
            result = yield from self._dp_poll(task, arg)
            return result
        if op == DP_POLL_WRITE:
            updates, dvp = arg
            yield from self.do_write(task, updates)
            result = yield from self._dp_poll(task, dvp)
            return result
        raise SyscallError(EINVAL, f"unknown /dev/poll ioctl {op:#x}")

    def _dp_poll(self, task: "Task", dvp: DvPoll):
        if not isinstance(dvp, DvPoll):
            raise SyscallError(EINVAL, "DP_POLL requires a DvPoll argument")
        costs = self.kernel.costs
        sim = self.kernel.sim
        use_area = dvp.dp_fds is None
        if use_area and not self.mapped:
            raise SyscallError(EINVAL, "DP_POLL with dp_fds=NULL needs mmap")
        max_results = dvp.dp_nfds
        if max_results <= 0:
            max_results = (self.result_area.capacity if use_area
                           else len(self.interests) or 1)
        if use_area and max_results > self.result_area.capacity:
            raise SyscallError(ENOSPC, "result area too small")
        deadline = (None if dvp.dp_timeout is None
                    else sim.now + dvp.dp_timeout)
        self.stats.polls += 1
        tracer = self.kernel.tracer
        span = (tracer.begin(sim.now, "devpoll", "dp_poll",
                             track=sim.current_process,
                             interests=len(self.interests))
                if tracer.enabled else None)
        while True:
            ready, charges = self._scan()
            scan_work = sum(seconds for _op, seconds in charges)
            # the ioctl path ran under the big kernel lock in 2.2; the
            # hint-driven scan is O(ready), so the serialized hold is
            # short -- the SMP advantage over select/poll
            yield self.kernel.cpu.consume_parts(
                self.kernel.under_bkl(("devpoll.scan", scan_work, charges)),
                PRIO_USER)
            if ready or dvp.dp_timeout == 0:
                ready = ready[:max_results]
                self.stats.results_returned += len(ready)
                self._batch_hist.observe(len(ready))
                if use_area:
                    area = self.result_area
                    for i, entry in enumerate(ready):
                        slot = area.entries[i]
                        slot.fd = entry.fd
                        slot.events = entry.events
                        slot.revents = entry.cached_revents
                    area.count = len(ready)
                    self.stats.results_via_mmap += len(ready)
                    tracer.end(sim.now, span, ready=len(ready), via="mmap")
                    return area.results()
                yield from self._charge_copyout(len(ready))
                tracer.end(sim.now, span, ready=len(ready), via="copyout")
                return [PollFd(e.fd, e.events, e.cached_revents) for e in ready]
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - sim.now
                if remaining <= 0:
                    tracer.end(sim.now, span, ready=0, via="timeout")
                    return []
            wake = self.wait_queue.wait_event()
            yield from wait_with_timeout(sim, wake, remaining)

    def _charge_copyout(self, n: int):
        if n > 0:
            yield self.kernel.cpu.consume(
                self.kernel.costs.devpoll_copyout_per_ready * n, PRIO_USER,
                "devpoll.copyout")

    # ------------------------------------------------------------------
    # mmap / lifecycle
    # ------------------------------------------------------------------
    def mmap(self, task: "Task") -> ResultArea:
        """Map the DP_ALLOC'd result area into the caller (section 3.3)."""
        if self.result_area is None:
            raise SyscallError(EINVAL, "mmap before DP_ALLOC")
        self.mapped = True
        return self.result_area

    def munmap(self, task: "Task") -> None:
        """Unmap the result area; DP_POLL then needs dp_fds again."""
        self.mapped = False

    def poll_mask(self) -> int:
        """/dev/poll itself is not pollable (as in Solaris)."""
        return 0

    def on_release(self) -> None:
        """Last close: unregister every backmap listener."""
        for entry in list(self.interests):
            self._detach(entry)
        super().on_release()
