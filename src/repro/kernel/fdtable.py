"""Per-task file-descriptor tables.

Follows Linux semantics the benchmark depends on: lowest-numbered free
descriptor is allocated first (this is why, in the paper's workloads, the
long-lived inactive connections congeal at the low end of the fd space and
every ``poll()`` must wade through them), and the table is bounded by an
``RLIMIT_NOFILE``-style limit -- httperf's stock assumption of 1024 fds,
which the authors had to lift, is modelled by the client harness.

A poll table kept across calls (:mod:`repro.core.poll_table`) that has
resolved a descriptor to its file links its entry into
:attr:`FDTable.polled`; closing the descriptor, or installing another
file over it, hands each linked entry to its table's ``fd_closed``, so
no table has to look up every descriptor on every call to notice.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from .constants import EBADF, EMFILE, SyscallError
from .file import File

if TYPE_CHECKING:  # pragma: no cover
    from .waitqueue import PollEntry


class FDTable:
    def __init__(self, limit: int = 1024):
        if limit <= 0:
            raise ValueError("fd limit must be positive")
        self.limit = limit
        self._files: Dict[int, File] = {}
        #: like :meth:`get` but returns None instead of raising; the
        #: dict's own bound ``get``, so a lookup makes no Python call
        self.lookup = self._files.get
        #: min-heap of closed descriptors below the high mark (may contain
        #: stale entries re-occupied via install_at; pops check occupancy)
        self._freed: List[int] = []
        self._high = 0  # every fd >= _high has never been allocated
        self.high_water = 0
        #: fd -> the first poll-table entry resolved to its file; each
        #: entry's ``next`` links the next one for the same fd
        self.polled: Dict[int, "PollEntry"] = {}

    # ------------------------------------------------------------------
    def alloc(self, file: File) -> int:
        """Install ``file`` at the lowest free descriptor."""
        fd = self._find_free()
        self._files[fd] = file.get()
        self.high_water = max(self.high_water, len(self._files))
        return fd

    def _find_free(self) -> int:
        while self._freed:
            fd = heapq.heappop(self._freed)
            if fd not in self._files:
                return fd
        if self._high >= self.limit:
            raise SyscallError(EMFILE, "file descriptor limit reached")
        fd = self._high
        self._high += 1
        return fd

    def install_at(self, fd: int, file: File) -> None:
        """dup2-style install at a specific descriptor (test plumbing)."""
        if not 0 <= fd < self.limit:
            raise SyscallError(EBADF)
        old = self._files.get(fd)
        self._files[fd] = file.get()
        if old is not None:
            old.put()
            if fd in self.polled:
                self._changed(fd)
        while self._high <= fd:
            heapq.heappush(self._freed, self._high)
            self._high += 1

    # ------------------------------------------------------------------
    def get(self, fd: int) -> File:
        file = self._files.get(fd)
        if file is None:
            raise SyscallError(EBADF, f"fd {fd} not open")
        return file

    def close(self, fd: int) -> File:
        """Remove the descriptor; returns the file (reference dropped)."""
        file = self._files.pop(fd, None)
        if file is None:
            raise SyscallError(EBADF, f"fd {fd} not open")
        heapq.heappush(self._freed, fd)
        file.put()
        if fd in self.polled:
            self._changed(fd)
        return file

    def _changed(self, fd: int) -> None:
        """``fd`` no longer names the file its poll entries resolved."""
        entry = self.polled.pop(fd)
        while entry is not None:
            following = entry.next
            entry.next = None
            entry.owner.fd_closed(entry)
            entry = following

    def close_all(self) -> None:
        for fd in list(self._files):
            self.close(fd)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, fd: int) -> bool:
        return fd in self._files

    def items(self) -> Iterator[Tuple[int, File]]:
        return iter(sorted(self._files.items()))

    def open_fds(self) -> List[int]:
        return sorted(self._files)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FDTable open={len(self._files)}/{self.limit}>"
