"""Classic ``select(2)`` -- the interface poll() itself superseded.

Included because the paper's ecosystem is full of its fingerprints:
httperf "assumes that the maximum is 1024" file descriptors precisely
because select's ``fd_set`` is a fixed ``FD_SETSIZE``-bit bitmap, and
thttpd's fdwatch layer could run on either select or poll.

Cost structure (the reason poll() replaced it): three bitmaps of
``maxfd`` bits are copied in and out *regardless of how many fds are
actually watched*, then every watched fd still gets a driver poll
callback -- so select is never cheaper than poll and its interest set is
hard-capped at :data:`FD_SETSIZE`.

The simulated cost stays O(watched), but the host work behind it is
not: a ``quiet`` socket (see :mod:`repro.kernel.file`) outside the
write set is counted and charged without its driver poll callback
being made, and a caller that keeps its
:class:`~repro.core.poll_table.PollTable` across calls pays the host
O(changed + not quiet) per call: the table keeps the watched sets with
the count and highest fd the charges need, and its wait-queue entries
stay registered between sleeps.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..kernel.constants import POLLERR, POLLHUP, POLLIN, POLLOUT
from ..kernel.task import Task
from ..sim.process import wait_with_timeout
from ..sim.resources import PRIO_USER
from .poll_table import PollTable

#: the fixed fd_set size that capped 2000-era select() servers
FD_SETSIZE = 1024

#: fds per machine word when copying bitmaps (i386)
_FDS_PER_WORD = 32


def sys_select(task: Task, readfds: Iterable[int], writefds: Iterable[int],
               timeout: Optional[float], deadline_abs: Optional[float] = None,
               build_part=None, tail_parts=(),
               table: Optional[PollTable] = None):
    """Generator implementing select(); returns (readable, writable).

    ``readfds``/``writefds`` are iterables of descriptors.  Raises
    ``EINVAL`` for any fd at or beyond :data:`FD_SETSIZE` and ``EBADF``
    for closed descriptors (select, unlike poll, has no per-fd error
    reporting -- the whole call fails).

    The charges fuse exactly as in
    :func:`repro.core.poll_syscall.sys_poll`: the caller's
    ``build_part``, the entry, the bitmap copyin and the first scan are
    one grant, the bitmap copyout and ``tail_parts`` another, and the
    boundary stamps supply the timeout clock reads.

    ``table`` is the caller's poll table, kept across its calls (pass
    sets, which it compares without copying); without one the call
    builds a table that lives for this call.
    """
    kernel = task.kernel
    costs = kernel.costs
    cpu = kernel.cpu
    sim = kernel.sim
    if table is None:
        table = PollTable(task, keep=False)
    table.watch_sets(readfds, writefds, FD_SETSIZE)
    nwatched = table.nwatched
    maxfd = table.maxfd + 1
    words = (maxfd + _FDS_PER_WORD - 1) // _FDS_PER_WORD

    # three bitmaps (read/write/except) copied in, three copied out --
    # proportional to maxfd, not to the number of watched fds
    bitmaps = ("select.bitmaps", 6 * words * costs.poll_copyin_per_fd,
               None)
    # the O(watched) driver scan ran under the big kernel lock in 2.2,
    # so on SMP it serializes against every other CPU's scan
    scan_part = ("select.scan", costs.poll_driver_callback * nwatched,
                 None)
    head = (kernel.fused.entry_part, bitmaps)
    if build_part is not None:
        head = (build_part,) + head
    issued_at = sim.now
    stamps: List[float] = []
    yield cpu.consume_parts(head + kernel.under_bkl(scan_part), PRIO_USER,
                            stamps=stamps)
    if timeout is None and deadline_abs is not None:
        # the caller derives its relative timeout after its fd_set build
        built_at = stamps[0] if build_part is not None else issued_at
        timeout = max(0.0, deadline_abs - built_at)
    deadline = None if timeout is None else stamps[len(head) - 1] + timeout
    waitqueue_cost = costs.poll_waitqueue_per_fd * nwatched

    while True:
        ready = table.scan()
        rset, wset = table.rset, table.wset
        readable = [fd for fd, revents in ready
                    if revents & (POLLIN | POLLERR | POLLHUP) and fd in rset]
        writable = [fd for fd, revents in ready
                    if revents & (POLLOUT | POLLERR) and fd in wset]
        if readable or writable or timeout == 0:
            yield cpu.consume_parts((bitmaps,) + tuple(tail_parts),
                                    PRIO_USER)
            return readable, writable
        remaining: Optional[float] = None
        if deadline is not None:
            remaining = deadline - sim.now
            if remaining <= 0:
                if tail_parts:
                    yield cpu.consume_parts(tuple(tail_parts), PRIO_USER)
                return [], []
        if waitqueue_cost > 0:
            yield cpu.consume(waitqueue_cost, PRIO_USER, "select.waitqueue")
        wake = table.arm(sim, "select.wake")
        try:
            yield from wait_with_timeout(sim, wake, remaining)
        finally:
            table.disarm()
        yield cpu.consume_parts(kernel.under_bkl(scan_part), PRIO_USER)
