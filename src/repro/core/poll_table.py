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
process (``keep``), so a call costs the host O(descriptors changed +
descriptors not quiet) rather than O(watched); any other caller gets a
table that lives for one call.  Both kinds run one path:

* *Built* when the table learns what its caller watches: a one-shot
  poll() table at construction, any other by :meth:`watch_list` (poll's
  interest list, re-matched by descriptor) or :meth:`watch_sets`
  (select's read and write sets, updated by difference, with the
  watched count and the highest fd).  A kept table compares each call's
  list or sets with its own (a C-level comparison) and changes only
  what differs.  There is one
  :class:`~repro.kernel.waitqueue.PollEntry` per watched descriptor
  (per occurrence, for poll's duplicates); a new one is unhooked and
  sits in ``due``, the entries the next scan evaluates.
* *Scanned*: :meth:`scan` evaluates ``due`` in result order (ascending
  fd for select; interest order for poll).  An unhooked entry's
  descriptor is looked up: closed or unopened, it reports ``POLLNVAL``
  to poll and fails select with ``EBADF``.  A one-shot table evaluates
  every entry in place and counts a quiet file (see
  :mod:`repro.kernel.file`) at once, so all its entries stay in
  ``due``.
* *Hooked*: a kept table hooks an entry at the scan that finds its
  descriptor open -- registers it on the file's wait queue and links it
  on the fd table's ``polled`` chain -- and leaves it there across
  calls.  A scan that reads its file quiet, asked nothing of
  ``POLLOUT``, drops it from ``due`` and notes the scan (``mark``);
  ``notify()``, clearing the bit, puts it back (:meth:`notified`).
  Every scan counts one callback on every watched open file, so the
  scans that skipped a file are credited to it when its entry rejoins
  ``due``, leaves its file, or the count is read
  (:attr:`repro.kernel.file.File.poll_callback_count`).  A select()
  that fails on a closed descriptor counted only the files before it,
  so such a scan takes its credit back from the entries after it.
* *Armed*: :meth:`arm` hooks every unhooked entry in ``due`` whose
  descriptor is open (looked up then, as the per-sleep registration
  did) and arms them all with one stamp, so a wake orders them as if
  appended then; :meth:`disarm` disarms them.  Disarmed, they wake
  nothing, but a notified file still tells a table that skips it.
* *Unhooked* when the table stops watching the descriptor, or when it
  is closed or given another file (the fd table calls
  :meth:`fd_closed`) -- at once, or when the caller resumes if it
  sleeps, as a per-sleep entry did -- and the next scan looks it up
  again.  A one-shot table's entries are unhooked by :meth:`disarm`, so
  they live exactly as long as the per-sleep entries they replace.

An entry names its table (``owner``) only while it is hooked, so a
one-shot call that never sleeps leaves no table-entry cycle behind.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

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
_EMPTY = frozenset()


class PollTable:
    """One select()/poll() caller's watched descriptors, kept across
    calls when ``keep`` is true (see the module docstring).  Passing
    ``interests`` builds a one-shot poll() table watching them."""

    __slots__ = ("fdtable", "keep", "interests", "entries", "rset", "wset",
                 "watched", "nwatched", "maxfd", "by_fd", "due", "scans",
                 "armed_at", "wake", "_stale")

    def __init__(self, task, keep: bool = True,
                 interests: Optional[List[Tuple[int, int]]] = None):
        self.fdtable = task.fdtable
        self.keep = keep
        #: poll: the interest list of the last call, and its entries in
        #: interest order; select: the read and write sets of the last
        #: call, their union, its size and highest fd, and the entries
        #: by fd
        self.interests = interests
        self.rset = self.wset = self.watched = _EMPTY
        self.nwatched = 0
        self.maxfd = -1
        if interests is None:
            self.entries = []
            self.by_fd = {}
            #: the entries the next scan evaluates
            self.due = {}
        else:
            # a one-shot poll(): every scan evaluates every entry, so the
            # list serves as ``due`` (the httperf client keeps hundreds of
            # these asleep at once)
            self.entries = self.due = [
                PollEntry(fd, events, pos)
                for pos, (fd, events) in enumerate(interests)]
            self.by_fd = None
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
        """poll(): watch ``interests``, ``[(fd, events), ...]``; the
        entries are re-matched to it by fd."""
        if interests == self.interests:
            return
        self.interests = interests = list(interests)
        old = {}
        for entry in self.entries:
            # one entry per descriptor is matched; a second occurrence
            # (poll() may list an fd twice) is dropped and built anew
            if old.setdefault(entry.fd, entry) is not entry:
                self._drop(entry)
        due = self.due
        entries = []
        for pos, (fd, events) in enumerate(interests):
            entry = old.pop(fd, None)
            if entry is None:
                entry = PollEntry(fd, events, pos)
                due[entry] = None
            else:
                entry.pos = pos
                entry.events = events
                if events & POLLOUT and entry.mark is not None:
                    self._settle(entry)
            entries.append(entry)
        for entry in old.values():
            self._drop(entry)
        self.entries = entries

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
        old = self.watched
        by_fd = self.by_fd
        due = self.due
        for fd in old - watched:
            entry = by_fd.pop(fd)
            # ``_drop`` inlined for a closed fd: every select() worker
            # forgets each fd it closes
            if entry.file is None:
                del due[entry]
            else:
                self._drop(entry)
        for fd in ((rset ^ self.rset) | (wset ^ self.wset)) & old & watched:
            entry = by_fd[fd]
            entry.events = ((POLLIN if fd in rset else 0)
                            | (POLLOUT if fd in wset else 0))
            if fd in wset and entry.mark is not None:
                self._settle(entry)
        # ascending, so that a one-shot table's ``due`` is in result order
        for fd in sorted(watched - old):
            entry = by_fd[fd] = PollEntry(
                fd, (POLLIN if fd in rset else 0)
                | (POLLOUT if fd in wset else 0), fd)
            due[entry] = None
        self.rset, self.wset, self.watched = rset, wset, watched
        self.nwatched = len(watched)
        self.maxfd = high

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def scan(self) -> List[Tuple[int, int]]:
        """Evaluate ``due`` in result order: return the ready ``(fd,
        revents)`` pairs, ``POLLNVAL`` for a closed or unopened
        descriptor, and count one callback on every watched open file.
        For select() a closed descriptor raises ``EBADF`` and ends the
        count there."""
        self.scans += 1
        scans = self.scans
        keep = self.keep
        due = self.due
        lookup = self.fdtable.lookup
        ready = []
        # a one-shot table's ``due`` is every entry, built in result order
        for entry in sorted(due, key=_POS) if keep else due:
            file = entry.file
            if file is None:
                fd = entry.fd
                file = lookup(fd)
                if file is None or file.closed:
                    if self.interests is None:
                        self._uncount_after(fd)
                        raise SyscallError(EBADF, f"select: fd {fd} not open")
                    ready.append((fd, POLLNVAL))
                    continue
                if keep:
                    # hooked here, and in arm(), without a helper: a
                    # kept table hooks every new connection here
                    entry.file = file
                    file.wait_queue.attach(entry, self)
                    polled = self.fdtable.polled
                    entry.next = polled.get(fd)
                    polled[fd] = entry
            events = entry.events
            if events & POLLOUT:
                revents = file.driver_poll() & (events | POLL_ALWAYS)
            elif file.quiet:
                file.settled_callbacks += 1
                if keep:
                    entry.mark = scans
                    del due[entry]
                continue
            else:
                revents = file.driver_poll() & (events | POLL_ALWAYS)
                if keep and file.quiet:
                    entry.mark = scans
                    del due[entry]
                    continue
            if revents:
                ready.append((entry.fd, revents))
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
        """The caller is about to sleep: hook every unhooked entry in
        ``due`` whose descriptor is open (looked up now, as the per-sleep
        registration did), arm, and return the event a notified file
        triggers.  Only a kept table links its entries on the fd table's
        ``polled`` chain: a one-shot table unhooks them all on resume."""
        lookup = self.fdtable.lookup
        polled = self.fdtable.polled if self.keep else None
        for entry in self.due:
            if entry.file is None:
                file = lookup(entry.fd)
                if file is not None and not file.closed:
                    # the httperf client's poll() hooks here on every sleep
                    entry.file = file
                    file.wait_queue.attach(entry, self)
                    if polled is not None:
                        entry.next = polled.get(entry.fd)
                        polled[entry.fd] = entry
        self.armed_at = next_stamp()
        self.wake = wake = sim.event(name)
        return wake

    def disarm(self) -> None:
        """The caller resumed: its entries wake nothing until it sleeps
        again.  Entries whose descriptor changed during the sleep leave
        their files now, and a one-shot table's entries all do."""
        self.armed_at = None
        self.wake = None
        if self.keep:
            if self._stale:
                stale, self._stale = self._stale, None
                for entry in stale:
                    self._detach(entry)
            return
        # ``_detach`` inlined, less the credit a one-shot table never
        # owes: the httperf client's poll() comes here on every sleep
        for entry in self.due:
            if entry.file is not None:
                entry.queue.remove(entry)
                entry.file = entry.owner = None

    # ------------------------------------------------------------------
    # hooks: wake-ups, descriptor changes, count reads
    # ------------------------------------------------------------------
    def notified(self, entry: PollEntry) -> None:
        """``entry``'s file was notified (``notify()`` cleared its quiet
        bit): evaluate it at the next scan, and wake a sleeping caller."""
        if entry.mark is not None:
            # ``_settle`` inlined: every wake of a file a kept table
            # skips comes here
            entry.file.settled_callbacks += self.scans - entry.mark
            entry.mark = None
            self.due[entry] = None
        wake = self.wake
        if wake is not None and not wake.triggered:
            wake.trigger(None)

    def fd_closed(self, entry: PollEntry) -> None:
        """``entry``'s descriptor was closed or given another file (the
        fd table has unlinked the entry): it leaves its file, and the
        next scan looks the descriptor up again."""
        if self.armed_at is not None:
            # the sleeping caller keeps its entry until it resumes
            if self._stale is None:
                self._stale = []
            self._stale.append(entry)
            return
        # ``_detach`` inlined: every close of a descriptor a kept table
        # watches comes here
        if entry.mark is not None:
            self._settle(entry)
        entry.queue.remove(entry)
        entry.file = entry.owner = None
        self.due[entry] = None

    def credit(self, entry: PollEntry) -> int:
        """Callbacks owed to ``entry``'s file for the scans that skipped it."""
        return 0 if entry.mark is None else self.scans - entry.mark

    def _settle(self, entry: PollEntry) -> None:
        """Credit ``entry``'s file with the scans that skipped it, and
        evaluate it at the next scan."""
        entry.file.settled_callbacks += self.scans - entry.mark
        entry.mark = None
        self.due[entry] = None

    def _detach(self, entry: PollEntry) -> None:
        """Take ``entry`` off its file, crediting what it is owed; the
        next scan looks its descriptor up again."""
        if entry.mark is not None:
            self._settle(entry)
        entry.queue.remove(entry)
        entry.file = entry.owner = None
        self.due[entry] = None

    def _drop(self, entry: PollEntry) -> None:
        """The table no longer watches ``entry``: unhook it if it is
        hooked -- off its file and the fd table's chain -- and forget it."""
        if entry.file is not None:
            self._detach(entry)
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
        del self.due[entry]
