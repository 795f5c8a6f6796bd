"""The poll table of ``select()`` and ``poll()``: what a caller watches,
kept across calls.

Section 3.1 of the paper blames select() and poll() for an O(n) driver
scan per call "even though the status of only one file descriptor in
hundreds or thousands might have changed"; section 3.2 fixes it with an
interest set kept across calls and driver hints that mark what changed.
The simulator still charges select's and poll's O(n) work in simulated
time (:mod:`repro.core.select_syscall`, :mod:`repro.core.poll_syscall`);
a :class:`PollTable` applies the fix to the host work behind it.  The
``poll`` and ``select`` event backends keep one table per server
process, so a call costs the host O(descriptors changed + descriptors
not quiet) rather than O(watched); any other caller gets a table that
lives for one call.

A table keeps:

* what the caller watches: poll's interest list, or select's read and
  write sets with the watched count and the highest fd.  Each call
  compares the caller's with them (a C-level comparison) and updates
  only what differs: select the descriptors that joined, left or
  changed interest; poll re-matches its list by descriptor.
* once its caller has slept (the table is *hooked*), one
  :class:`~repro.kernel.waitqueue.PollEntry` per watched descriptor (per
  occurrence, for poll's duplicates), resolved to its file and kept on
  that file's wait queue.  :meth:`arm` arms them all at once with one
  stamp, so a wake orders them as if appended then, and :meth:`disarm`
  disarms them; disarmed they wake nothing, but a notified file still
  tells the table (:meth:`notified`).
* ``due``: the entries the next scan evaluates -- every entry whose file
  is not ``quiet`` (see :mod:`repro.kernel.file`), every entry asking
  for ``POLLOUT``, every closed or unopened descriptor.  An entry leaves
  ``due`` when a scan reads its file quiet and rejoins when ``notify()``
  clears the bit.  A hooked scan evaluates ``due`` in result order
  (ascending fd for select; interest order for poll) and skips every
  other entry, as the quiet skip always has.
* the callback count.  Every scan counts one callback on every watched
  open file; an entry outside ``due`` notes the scan that last counted
  it (``mark``) and the scans since are credited to its file when it
  rejoins ``due``, leaves the table, or the count is read
  (:attr:`repro.kernel.file.File.poll_callback_count`).  A select()
  that fails on a closed descriptor counted only the files before it,
  so such a scan takes its credit back from the entries after it.
* descriptor changes.  A hooked entry is linked on its fd table's
  ``polled`` chain; closing its descriptor, or installing another file
  over it, calls :meth:`fd_closed`, and the entry leaves its file --
  at once, or when its caller resumes if it sleeps, as a per-sleep
  entry did -- and is looked up again by the next scan.

A table that is not hooked -- a one-shot caller's, or a kept one whose
caller has not slept yet -- scans every watched descriptor as the
per-call code always did, looking each one up.  A one-shot table hooks
when its caller sleeps and unhooks when it resumes, so its entries live
exactly as long as the per-sleep entries it replaces; it never scans
while hooked, so it keeps no ``due`` and credits nothing lazily.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..kernel.constants import (
    EBADF,
    EINVAL,
    POLL_ALWAYS,
    POLLIN,
    POLLNVAL,
    POLLOUT,
    SyscallError,
)
from ..kernel.waitqueue import PollEntry, next_stamp

_POS = attrgetter("pos")


class PollTable:
    """One select()/poll() caller's watched descriptors, kept across
    calls when ``keep`` is true (see the module docstring).  A one-shot
    poll() table may be built watching its call's ``interests``."""

    __slots__ = ("fdtable", "keep", "interests", "rset", "wset", "watched",
                 "nwatched", "maxfd", "hooked", "entries", "by_fd", "due",
                 "scans", "armed_at", "wake", "_stale")

    def __init__(self, task, keep: bool = True,
                 interests: Optional[List[Tuple[int, int]]] = None):
        self.fdtable = task.fdtable
        self.keep = keep
        #: poll: the interest list of the last call
        self.interests = interests
        #: select: the read and write sets of the last call, their
        #: union, its size and highest fd
        self.rset: Optional[Set[int]] = None
        self.wset: Optional[Set[int]] = None
        self.watched: Optional[Set[int]] = None
        self.nwatched = 0
        self.maxfd = -1
        # hooked only (None otherwise, so a one-shot call that does not
        # sleep builds none of them): poll's entries in interest order,
        # select's by fd, and the entries the next scan evaluates
        self.hooked = False
        self.entries: Optional[List[PollEntry]] = None
        self.by_fd: Optional[Dict[int, PollEntry]] = None
        self.due: Optional[Dict[PollEntry, None]] = None
        self.scans = 0
        #: the arm stamp while the caller sleeps, else None
        self.armed_at: Optional[int] = None
        self.wake = None
        #: entries whose descriptor changed while the caller slept
        self._stale: Optional[List[PollEntry]] = None

    # ------------------------------------------------------------------
    # what the caller watches
    # ------------------------------------------------------------------
    def watch_list(self, interests: Sequence[Tuple[int, int]]) -> None:
        """poll(): watch ``interests``, ``[(fd, events), ...]``."""
        if interests == self.interests:
            return
        interests = list(interests)
        self.interests = interests
        if self.hooked:
            self._rematch(interests)

    def watch_sets(self, readfds: Iterable[int], writefds: Iterable[int],
                   limit: int) -> None:
        """select(): watch ``readfds`` for reading and ``writefds`` for
        writing; ``EINVAL`` for a descriptor outside ``[0, limit)``."""
        if readfds == self.rset and writefds == self.wset:
            return
        rset, wset = set(readfds), set(writefds)
        if rset == self.rset and wset == self.wset:
            return
        watched = rset | wset
        if watched:
            low, high = min(watched), max(watched)
            if low < 0 or high >= limit:
                bad = low if low < 0 else high
                raise SyscallError(EINVAL, f"fd {bad} outside FD_SETSIZE")
        else:
            high = -1
        if self.hooked:
            # drop the fds that left, re-type those whose interest
            # changed, add new ones unresolved (the next scan looks them
            # up)
            old = self.watched
            by_fd = self.by_fd
            due = self.due
            for fd in old - watched:
                entry = by_fd.pop(fd)
                if entry.file is None:  # closed: already off its file
                    due.pop(entry, None)
                else:
                    self._drop(entry)
            for fd in ((rset ^ self.rset) | (wset ^ self.wset)) & old & watched:
                entry = by_fd[fd]
                events = entry.events = ((POLLIN if fd in rset else 0)
                                         | (POLLOUT if fd in wset else 0))
                if events & POLLOUT and entry.mark is not None:
                    entry.file.settled_callbacks += self.scans - entry.mark
                    entry.mark = None
                    due[entry] = None
            for fd in watched - old:
                entry = by_fd[fd] = PollEntry(
                    self, fd, (POLLIN if fd in rset else 0)
                    | (POLLOUT if fd in wset else 0), fd)
                due[entry] = None
        self.rset, self.wset, self.watched = rset, wset, watched
        self.nwatched = len(watched)
        self.maxfd = high

    def _rematch(self, interests: List[Tuple[int, int]]) -> None:
        """Re-match the hooked entries to poll's new list, by fd."""
        old: Dict[int, List[PollEntry]] = {}
        for entry in self.entries:
            old.setdefault(entry.fd, []).append(entry)
        due = self.due
        entries = []
        for pos, (fd, events) in enumerate(interests):
            same = old.get(fd)
            if same:
                entry = same.pop(0)
                entry.pos = pos
                if events & POLLOUT and entry.mark is not None:
                    entry.file.settled_callbacks += self.scans - entry.mark
                    entry.mark = None
                    due[entry] = None
                entry.events = events
            else:
                entry = PollEntry(self, fd, events, pos)
                due[entry] = None
            entries.append(entry)
        for same in old.values():
            for entry in same:
                self._drop(entry)
        self.entries = entries

    def _drop(self, entry: PollEntry) -> None:
        """``entry`` is no longer watched."""
        if entry.file is not None:
            self._detach(entry)
            self._unlink(entry)
        self.due.pop(entry, None)

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    # Each scan returns the ready ``(fd, revents)`` pairs in result
    # order, ``POLLNVAL`` for a closed or unopened descriptor, and counts
    # one callback on every watched open file; for select() a closed
    # descriptor raises ``EBADF`` and ends the count there.  A hooked
    # table scans with scan_due(), an unhooked one with scan_list()
    # (poll) or scan_sets() (select).

    def scan_due(self) -> List[Tuple[int, int]]:
        """A hooked scan: ``due`` only, in result order."""
        self.scans += 1
        scans = self.scans
        due = self.due
        ready = []
        for entry in sorted(due, key=_POS):
            file = entry.file
            if file is None:
                fd = entry.fd
                file = self.fdtable.lookup(fd)
                if file is None or file.closed:
                    if self.rset is not None:
                        self._uncount_after(fd)
                        raise SyscallError(EBADF, f"select: fd {fd} not open")
                    ready.append((fd, POLLNVAL))
                    continue
                # _hook, inlined
                entry.file = file
                file.wait_queue.attach(entry)
                polled = self.fdtable.polled
                entry.next = polled.get(fd)
                polled[fd] = entry
            events = entry.events
            if events & POLLOUT:
                revents = file.driver_poll() & (events | POLL_ALWAYS)
            elif file.quiet:
                file.settled_callbacks += 1
                entry.mark = scans
                del due[entry]
                continue
            else:
                revents = file.driver_poll() & (events | POLL_ALWAYS)
                if file.quiet:
                    entry.mark = scans
                    del due[entry]
                    continue
            if revents:
                ready.append((entry.fd, revents))
        return ready

    def scan_list(self) -> List[Tuple[int, int]]:
        """An unhooked poll() scan: every interest, in order."""
        self.scans += 1
        ready = []
        lookup = self.fdtable.lookup
        for fd, events in self.interests:
            file = lookup(fd)
            if file is None or file.closed:
                ready.append((fd, POLLNVAL))
            elif file.quiet and not events & POLLOUT:
                file.settled_callbacks += 1
            else:
                mask = file.driver_poll() & (events | POLL_ALWAYS)
                if mask:
                    ready.append((fd, mask))
        return ready

    def scan_sets(self) -> List[Tuple[int, int]]:
        """An unhooked select() scan: every watched fd, ascending."""
        self.scans += 1
        ready = []
        lookup = self.fdtable.lookup
        rset, wset = self.rset, self.wset
        for fd in sorted(self.watched):
            file = lookup(fd)
            if file is None or file.closed:
                raise SyscallError(EBADF, f"select: fd {fd} not open")
            if fd in wset:
                mask = file.driver_poll() & (
                    (POLLIN if fd in rset else 0) | POLLOUT | POLL_ALWAYS)
            elif file.quiet:
                file.settled_callbacks += 1
                continue
            else:
                mask = file.driver_poll() & (POLLIN | POLL_ALWAYS)
            if mask:
                ready.append((fd, mask))
        return ready

    def _uncount_after(self, fd: int) -> None:
        """A select() scan failed at ``fd``: the skipped entries past it
        were not covered, so their credit for this scan goes back."""
        for entry in self.by_fd.values():
            if entry.mark is not None and entry.fd > fd:
                entry.mark += 1

    # ------------------------------------------------------------------
    # sleeping
    # ------------------------------------------------------------------
    def arm(self, sim, name: str):
        """The caller is about to sleep: hook every watched open file
        (looked up now, as the per-sleep registration did) or, once
        hooked, the descriptors not resolved yet; arm; return the
        event a notified file triggers.  (``_hook`` is inlined in the
        first loop: a one-shot caller hooks on every sleep.)"""
        lookup = self.fdtable.lookup
        due = self.due
        if self.hooked:
            for entry in due:
                if entry.file is None:
                    file = lookup(entry.fd)
                    if file is not None and not file.closed:
                        self._hook(entry, file)
        else:
            # a one-shot table never scans while hooked, so it keeps no
            # ``due`` and credits nothing lazily
            keep = self.keep
            polled = self.fdtable.polled
            scans = self.scans
            self.due = due = {} if keep else None
            if self.rset is None:
                watched = [(fd, events, pos) for pos, (fd, events)
                           in enumerate(self.interests)]
            else:
                rset, wset = self.rset, self.wset
                watched = [(fd, (POLLIN if fd in rset else 0)
                            | (POLLOUT if fd in wset else 0), fd)
                           for fd in self.watched]
            entries = []
            for fd, events, pos in watched:
                entry = PollEntry(self, fd, events, pos)
                entries.append(entry)
                file = lookup(fd)
                if file is not None and not file.closed:
                    entry.file = file
                    file.wait_queue.attach(entry)
                    entry.next = polled.get(fd)
                    polled[fd] = entry
                    if not keep:
                        continue
                    if file.quiet and not events & POLLOUT:
                        entry.mark = scans  # the scan just made counted it
                        continue
                if keep:
                    due[entry] = None
            if self.rset is None:
                self.entries = entries
            else:
                self.by_fd = {entry.fd: entry for entry in entries}
            self.hooked = True
        self.armed_at = next_stamp()
        self.wake = wake = sim.event(name)
        return wake

    def disarm(self) -> None:
        """The caller resumed: its entries wake nothing until it sleeps
        again.  Entries whose descriptor changed during the sleep leave
        their files now; a one-shot table unhooks altogether (``_detach``
        and ``_unlink`` inlined: it does so every sleep)."""
        self.armed_at = None
        self.wake = None
        if self._stale:
            stale, self._stale = self._stale, None
            for entry in stale:
                self._detach(entry)
                if self.keep:
                    self.due[entry] = None
        if self.keep:
            return
        polled = self.fdtable.polled
        for entry in (self.entries if self.rset is None
                      else self.by_fd.values()):
            if entry.file is None:
                continue
            entry.queue.remove(entry)
            fd = entry.fd
            head = polled[fd]
            if head is entry:
                if entry.next is None:
                    del polled[fd]
                else:
                    polled[fd] = entry.next
            else:
                while head.next is not entry:
                    head = head.next
                head.next = entry.next
        self.entries = self.by_fd = self.due = None
        self.hooked = False

    # ------------------------------------------------------------------
    # hooks: wake-ups, descriptor changes, count reads
    # ------------------------------------------------------------------
    def notified(self, entry: PollEntry) -> None:
        """``entry``'s file was notified (``notify()`` cleared its quiet
        bit): evaluate it at the next scan, and wake a sleeping caller."""
        if entry.mark is not None:
            entry.file.settled_callbacks += self.scans - entry.mark
            entry.mark = None
            self.due[entry] = None
        wake = self.wake
        if wake is not None and not wake.triggered:
            wake.trigger(None)

    def fd_closed(self, entry: PollEntry) -> None:
        """``entry``'s descriptor was closed or given another file (the
        fd table has unlinked the entry): it leaves its file (``_detach``,
        inlined) and the next scan looks the descriptor up again."""
        if self.armed_at is not None:
            # the sleeping caller keeps its entry until it resumes
            if self._stale is None:
                self._stale = []
            self._stale.append(entry)
            return
        if entry.mark is not None:
            entry.file.settled_callbacks += self.scans - entry.mark
            entry.mark = None
        entry.queue.remove(entry)
        entry.file = None
        self.due[entry] = None

    def credit(self, entry: PollEntry) -> int:
        """Callbacks owed to ``entry``'s file for the scans that skipped it."""
        return 0 if entry.mark is None else self.scans - entry.mark

    def _hook(self, entry: PollEntry, file) -> None:
        """Resolve ``entry`` to ``file``: register it on the file's wait
        queue and link it on the fd table's chain."""
        entry.file = file
        file.wait_queue.attach(entry)
        polled = self.fdtable.polled
        entry.next = polled.get(entry.fd)
        polled[entry.fd] = entry

    def _detach(self, entry: PollEntry) -> None:
        """Take ``entry`` off its file, crediting what it is owed."""
        if entry.mark is not None:
            entry.file.settled_callbacks += self.scans - entry.mark
            entry.mark = None
        entry.queue.remove(entry)
        entry.file = None

    def _unlink(self, entry: PollEntry) -> None:
        """Take ``entry`` off the fd table's chain for its descriptor."""
        polled = self.fdtable.polled
        fd = entry.fd
        head = polled[fd]
        if head is entry:
            if entry.next is None:
                del polled[fd]
            else:
                polled[fd] = entry.next
        else:
            while head.next is not entry:
                head = head.next
            head.next = entry.next
        entry.next = None
