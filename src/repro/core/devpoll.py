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
* device-driver hints (section 3.2): ``DP_POLL`` scans the hinted
  ready list it shares with epoll
  (:class:`~repro.core.readylist.ReadyListFile`), unless
  ``DevPollConfig.use_hints`` is off and every interest's driver poll
  callback runs on every scan; a watched descriptor closed without a
  ``POLLREMOVE`` reports ``POLLNVAL``;
* the mmap result area (section 3.3): ``DP_ALLOC`` + ``mmap`` share the
  result buffer, eliminating the per-ready copy-out charge;
* ``DP_POLL_WRITE`` applies an update batch and polls in one system call
  (the section 6 future-work combined operation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..kernel.constants import (
    EBADF,
    EINVAL,
    ENOSPC,
    POLLNVAL,
    POLLREMOVE,
    SyscallError,
)
from ..sim.resources import PRIO_USER
from .interest_set import Interest
from .pollfd import DP_ALLOC, DP_FREE, DP_POLL, DP_POLL_WRITE, DvPoll, PollFd
from .readylist import Charges, ReadyListFile

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


class DevPollFile(ReadyListFile):
    """One open instance of the /dev/poll device (one interest set)."""

    file_type = "devpoll"
    scan_op = "devpoll.scan"
    hint_op = "devpoll.hint"
    fuse_write_entry = True  # do_write takes the fused entry_part kwarg

    def __init__(self, kernel: "Kernel", config: Optional[DevPollConfig] = None):
        self.config = config if config is not None else DevPollConfig()
        super().__init__(kernel, "/dev/poll", self.config.interest_kind)
        self.stats = DevPollStats()
        self.result_area: Optional[ResultArea] = None
        self.mapped = False

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
            self._remove(pfd.fd)
            return
        file = task.fdtable.lookup(pfd.fd)
        if file is None:
            raise SyscallError(EBADF, f"/dev/poll write: fd {pfd.fd} not open")
        existing = self.interests.lookup(pfd.fd)
        if existing is not None and existing.file is not file:
            # the descriptor was closed and reused without a POLLREMOVE:
            # the stale entry leaves the old file, as a POLLREMOVE would
            # have taken it, and the new file gets an entry of its own
            self._remove(pfd.fd)
            existing = None
        entry = self.interests.update(
            pfd.fd, pfd.events, file, or_mode=self.config.solaris_compat)
        if existing is None:
            self._attach(file, entry)
        # new and modified entries must be evaluated at the next scan
        self._mark_hint(entry)

    # ------------------------------------------------------------------
    # the ready list's /dev/poll terms
    # ------------------------------------------------------------------
    def _wake(self, band: int) -> None:
        if self.config.wake_one:
            self.wait_queue.wake_one(self, band)
        else:
            self.wait_queue.wake_all(self, band)

    def _closed(self, entry: Interest) -> None:
        entry.cached_revents = POLLNVAL

    def _pass_parts(self, cached: int, hinted: int, nohint: int) -> Charges:
        """Fixed ``poll_base`` work plus the per-fd ``driver_callback``
        invocations, lumped into one "devpoll.scan" CPU grant that an
        attached profiler sees itemized."""
        costs = self.kernel.costs
        stats = self.stats
        stats.driver_callbacks_ready_recheck += cached
        stats.driver_callbacks_hinted += hinted
        stats.driver_callbacks_full += nohint
        return (("poll_base", costs.devpoll_poll_base),
                ("driver_callback",
                 costs.devpoll_cached_ready_recheck * cached
                 + costs.devpoll_hint_scan * hinted
                 + costs.devpoll_full_scan_per_fd * nohint))

    def _scan(self):
        """With hints off, every interest's driver callback runs."""
        if self.config.use_hints:
            return super()._scan()
        ready = []
        for entry in self.interests:
            entry.hinted = False
            self._evaluate(entry)
            if entry.cached_revents:
                ready.append(entry)
        self._hinted = []
        self._cache_ready(ready)
        return ready, self._pass_parts(0, 0, len(self.interests))

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
        self.stats.polls += 1
        tracer = self.kernel.tracer
        span = (tracer.begin(sim.now, "devpoll", "dp_poll",
                             track=sim.current_process,
                             interests=len(self.interests))
                if tracer.enabled else None)
        ready = yield from self._harvest(dvp.dp_timeout)
        if ready is None:
            tracer.end(sim.now, span, ready=0, via="timeout")
            return []
        ready = ready[:max_results]
        self.stats.results_returned += len(ready)
        self._batch_hist.record(len(ready))
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
        if ready:
            yield self.kernel.cpu.consume(
                self.kernel.costs.devpoll_copyout_per_ready * len(ready),
                PRIO_USER, "devpoll.copyout")
        tracer.end(sim.now, span, ready=len(ready), via="copyout")
        return [PollFd(e.fd, e.events, e.cached_revents) for e in ready]

    # ------------------------------------------------------------------
    # mmap
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
