"""Kernel wait queues.

A :class:`WaitQueue` is a list of entries.  Two kinds of sleeper use
them:

* blocking syscalls (``read`` on an empty socket) register an
  *auto-removing* entry whose callback wakes the sleeping process;
* ``poll()`` and ``select()`` keep one :class:`PollEntry` per watched
  file ("poll table entries" in Linux) in the caller's poll table
  (:mod:`repro.core.poll_table`), which may leave it registered across
  calls.  A poll entry names its table (``owner``) only while it is on
  a queue.  It is *armed* while its owner's caller sleeps: it then
  wakes like any entry, ordered as if it had been appended when its
  owner armed.  Disarmed, it wakes nothing and counts no wakeup; if its
  owner is skipping the file as quiet, the owner still hears of the
  wake, which is how the table learns that the file changed.

Wake order is the order in which entries were added -- for a poll
entry, the moment its owner armed.  Every added entry and every arming
takes a stamp from one counter, and :meth:`WaitQueue.wake_all` sorts by
those stamps only when more than one live entry sits on the queue.

Section 6 of the paper singles out wait_queue manipulation as poll's
expensive step -- the cost is charged by the poll implementations in
:mod:`repro.core`, not here, so this structure stays reusable.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List

from ..sim.engine import Event, Simulator

#: the next wake-order stamp: a plain entry takes one when it is added,
#: a poll table when it arms
next_stamp = itertools.count().__next__


class _Entry:
    """What a wait queue needs of every entry: its queue while it is
    registered, and whether it is."""

    __slots__ = ("queue", "active")


class WaitEntry(_Entry):
    __slots__ = ("callback", "autoremove", "stamp")
    #: the poll table keeping the entry registered; None for a plain one
    owner = None

    def __init__(self, queue: "WaitQueue", callback: Callable[..., None],
                 autoremove: bool):
        self.queue = queue
        self.callback = callback
        self.autoremove = autoremove
        self.active = True
        self.stamp = next_stamp()


class PollEntry(_Entry):
    """One descriptor a poll table watches (one occurrence of it, for
    poll's duplicates).  While it is registered on its file's wait
    queue (hooked), ``owner`` is the table and ``file`` the file;
    otherwise both are None.  A wake calls ``owner.notified(entry)``;
    the owner counts as armed while ``owner.armed_at`` holds its arm
    stamp.

    ``events`` is the interest, ``pos`` the result-order key, ``next``
    the next entry on the fd table's ``polled`` chain for ``fd``, and
    ``mark`` the scan that last counted the file while the owner skips
    it as quiet and credits it lazily (else None): only then must a
    disarmed entry's owner hear of a wake.
    """

    __slots__ = ("owner", "fd", "events", "pos", "file", "mark", "next")

    def __init__(self, fd: int, events: int, pos: int):
        self.owner = None
        self.fd = fd
        self.events = events
        self.pos = pos
        self.file = None
        self.mark = None
        self.next = None
        self.queue = None
        self.active = False


def _wake_stamp(entry: _Entry) -> int:
    owner = entry.owner
    if owner is None:
        return entry.stamp
    armed_at = owner.armed_at
    # a disarmed poll entry wakes nothing; its owner just takes note
    return -1 if armed_at is None else armed_at


class WaitQueue:
    def __init__(self, sim: Simulator, name: str = "wq"):
        self.sim = sim
        self.name = name
        self._entries: List[_Entry] = []
        self.wakeups = 0

    # ------------------------------------------------------------------
    def add(self, callback: Callable[..., None], autoremove: bool = True) -> WaitEntry:
        entry = WaitEntry(self, callback, autoremove)
        self._entries.append(entry)
        return entry

    def attach(self, entry: PollEntry, owner) -> None:
        """Register ``owner``'s poll entry; it stays until removed."""
        entry.owner = owner
        entry.queue = self
        entry.active = True
        self._entries.append(entry)

    def remove(self, entry: _Entry) -> None:
        if entry.active:
            entry.active = False
            try:
                self._entries.remove(entry)
            except ValueError:  # pragma: no cover - defensive
                pass

    def poll_entries(self) -> List[PollEntry]:
        """The poll tables' entries on this queue."""
        return [e for e in self._entries if e.owner is not None]

    def _wake_order(self) -> List[_Entry]:
        """A snapshot of the entries, sorted by stamp when more than one
        of them is live (a plain entry, or an armed poll entry)."""
        entries = self._entries
        live = 0
        for entry in entries:
            owner = entry.owner
            if owner is None or owner.armed_at is not None:
                live += 1
        if live < 2:
            return entries[:]
        return sorted(entries, key=_wake_stamp)

    def wake_all(self, *args: Any) -> int:
        """Invoke every entry's callback; auto-removing entries detach first.

        Returns the number of entries woken.
        """
        entries = self._entries
        if len(entries) > 1:
            entries = self._wake_order()
        elif entries:
            entries = entries[:]
        else:
            return 0
        woken = 0
        for entry in entries:
            if not entry.active:
                continue
            owner = entry.owner
            if owner is not None:
                if owner.armed_at is not None:
                    self.wakeups += 1
                    woken += 1
                elif entry.mark is None:
                    continue
                owner.notified(entry)
                continue
            if entry.autoremove:
                self.remove(entry)
            self.wakeups += 1
            woken += 1
            entry.callback(*args)
        return woken

    def wake_one(self, *args: Any) -> bool:
        """Wake only the first waiter (the paper's section 6 suggests this
        as a thundering-herd mitigation).  Returns True if one was woken.

        A disarmed poll entry is passed over: this is no ``notify()``,
        so its file's readiness did not change."""
        entries = self._entries
        entries = self._wake_order() if len(entries) > 1 else entries[:]
        for entry in entries:
            if not entry.active:
                continue
            owner = entry.owner
            if owner is not None:
                if owner.armed_at is None:
                    continue
                self.wakeups += 1
                owner.notified(entry)
                return True
            if entry.autoremove:
                self.remove(entry)
            self.wakeups += 1
            entry.callback(*args)
            return True
        return False

    # ------------------------------------------------------------------
    def wait_event(self) -> Event:
        """Convenience for blocking sleepers: an Event triggered on wake."""
        ev = self.sim.event(f"{self.name}.wait")

        def _cb(*_args: Any) -> None:
            if not ev.triggered:
                ev.trigger(None)

        self.add(_cb, autoremove=True)
        return ev

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WaitQueue {self.name!r} waiters={len(self._entries)}>"
