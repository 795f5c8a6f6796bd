"""``/dev/poll`` backend: in-kernel interest set, incremental updates.

The paper's section 3 mechanism: interest changes are queued in
userspace (:class:`InterestUpdateBatch`), flushed
with one ``write()`` per loop, and waiting is ``ioctl(DP_POLL)``, which
returns only ready descriptors -- so the per-loop scan is over the
ready list, not the whole interest set, and there is no per-event
fdwatch re-check at all.

Options mirror the paper's variants: ``use_mmap`` shares the result
area (section 3.3, no copy-out) and ``combined_update_poll`` folds the
update write and the poll into one ``DP_POLL_WRITE`` syscall (section 6
future work).  Both are read from the owning server's config.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..core.devpoll import DevPollConfig
from ..core.pollfd import DP_ALLOC, DP_POLL, DP_POLL_WRITE, DvPoll, PollFd
from ..kernel.constants import POLLIN, POLLREMOVE
from .base import EventBackend, register_backend


class InterestUpdateBatch:
    """Userspace staging of /dev/poll interest updates.

    A careful application coalesces its updates before writing them: a
    connection accepted and closed within the same event batch must not
    reach the kernel at all (its fd may already be closed -- or worse,
    reused -- by flush time).  Removes cancel any staged updates for the
    same fd and are only emitted if the kernel has actually seen that
    interest; batch order is preserved so remove-then-re-add on a reused
    fd number stays correct.
    """

    def __init__(self) -> None:
        self._pending: list = []
        self._in_kernel: set = set()

    def add(self, fd: int, events: int) -> None:
        self._pending.append(PollFd(fd, events))

    def remove(self, fd: int) -> None:
        self._pending = [p for p in self._pending if p.fd != fd]
        if fd in self._in_kernel:
            self._pending.append(PollFd(fd, POLLREMOVE))

    def flush(self) -> list:
        """Take the staged updates (possibly empty) and account them."""
        updates, self._pending = self._pending, []
        for p in updates:
            if p.events & POLLREMOVE:
                self._in_kernel.discard(p.fd)
            else:
                self._in_kernel.add(p.fd)
        return updates

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def in_kernel(self) -> set:
        """fds whose interest the kernel has actually seen (read-only)."""
        return self._in_kernel


@register_backend
class DevpollBackend(EventBackend):
    name = "devpoll"

    def __init__(self, server) -> None:
        super().__init__(server)
        self.dp_fd: int = -1
        self._updates = InterestUpdateBatch()
        self._result_area = None

    # -- config knobs, read off the owning server's config -------------

    @property
    def _cfg(self):
        return self.server.config

    @property
    def use_mmap(self) -> bool:
        return getattr(self._cfg, "use_mmap", True)

    @property
    def combined_update_poll(self) -> bool:
        return getattr(self._cfg, "combined_update_poll", False)

    @property
    def result_capacity(self) -> int:
        return getattr(self._cfg, "result_capacity", 1024)

    @property
    def devpoll_config(self) -> DevPollConfig:
        cfg = getattr(self._cfg, "devpoll", None)
        return cfg if cfg is not None else DevPollConfig()

    # -- protocol ------------------------------------------------------

    def setup(self) -> Generator:
        yield from super().setup()
        sys = self.sys
        self.dp_fd = yield from sys.open_devpoll(self.devpoll_config)
        if self.use_mmap:
            yield from sys.ioctl(self.dp_fd, DP_ALLOC, self.result_capacity)
            self._result_area = yield from sys.mmap_devpoll(self.dp_fd)
        self._updates.add(self.server.listen_fd, POLLIN)

    def register(self, fd: int, mask: int) -> Generator:
        self.stats.registers += 1
        self._counts[self._registers_key] += 1
        self._updates.add(fd, mask)
        return
        yield  # pragma: no cover - marks this as a generator

    def modify(self, fd: int, mask: int) -> Generator:
        # /dev/poll has no distinct modify: re-adding replaces the mask
        # (or ORs it in under solaris_compat) at the next batch flush.
        self.stats.modifies += 1
        self._counts[self._modifies_key] += 1
        self._updates.add(fd, mask)
        return
        yield  # pragma: no cover - marks this as a generator

    def interest_forget(self, fd: int) -> None:
        # Stage the POLLREMOVE; the batch coalesces it away entirely if
        # the kernel never saw this fd (accepted and closed in the same
        # loop), keeping fd reuse correct.
        self._updates.remove(fd)

    def flush(self) -> Generator:
        """Write the staged interest updates, if any, in one ``write()``."""
        if len(self._updates):
            yield from self.sys.write(self.dp_fd, self._updates.flush())

    def wait(self, max_events: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None) -> Generator:
        server = self.server
        sys = self.sys
        timeout = self._deadline_timeout(deadline, timeout)
        capacity = self.result_capacity
        if max_events is not None:
            capacity = min(capacity, max_events)
        dvp = DvPoll(dp_fds=None if self.use_mmap else [],
                     dp_nfds=capacity, dp_timeout=timeout)
        if self.combined_update_poll:
            ready = yield from sys.ioctl(
                self.dp_fd, DP_POLL_WRITE, (self._updates.flush(), dvp))
        else:
            yield from self.flush()
            ready = yield from sys.ioctl(self.dp_fd, DP_POLL, dvp)
        # userspace scans only the ready results
        if self.kernel.tracer.enabled:
            self.kernel.trace(server.name,
                              f"loop {server.stats.loops}: "
                              f"{len(ready)} ready")
        yield from sys.cpu_work(
            self.costs.user_scan_per_fd * len(ready), "app.scan")
        events = [(pfd.fd, pfd.revents) for pfd in ready]
        self._note_wait(events, len(self._updates.in_kernel))
        return events
