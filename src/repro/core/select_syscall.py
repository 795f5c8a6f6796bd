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

The simulated cost stays O(watched), but the host work of a scan is
O(changed): the read and write sets are Python sets, so each watched fd
costs one membership test per set, and a ``quiet`` socket (see
:mod:`repro.kernel.file`) outside the write set is counted and charged
without its driver poll callback being made.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..kernel.constants import (
    EBADF,
    EINVAL,
    POLLERR,
    POLLHUP,
    POLLIN,
    POLLOUT,
    SyscallError,
)
from ..kernel.task import Task
from ..sim.resources import PRIO_USER
from .poll_syscall import sleep_on_files

#: the fixed fd_set size that capped 2000-era select() servers
FD_SETSIZE = 1024

#: fds per machine word when copying bitmaps (i386)
_FDS_PER_WORD = 32


def sys_select(task: Task, readfds: Iterable[int], writefds: Iterable[int],
               timeout: Optional[float], deadline_abs: Optional[float] = None,
               build_part=None, tail_parts=()):
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
    """
    kernel = task.kernel
    costs = kernel.costs
    cpu = kernel.cpu
    sim = kernel.sim
    rset = set(readfds)
    wset = set(writefds)
    watched = sorted(rset | wset)
    if watched and not (0 <= watched[0] and watched[-1] < FD_SETSIZE):
        bad = watched[0] if watched[0] < 0 else watched[-1]
        raise SyscallError(EINVAL, f"fd {bad} outside FD_SETSIZE")
    maxfd = (watched[-1] + 1) if watched else 0
    words = (maxfd + _FDS_PER_WORD - 1) // _FDS_PER_WORD
    lookup = task.fdtable.lookup

    def scan() -> Tuple[List[int], List[int]]:
        readable, writable = [], []
        for fd in watched:
            file = lookup(fd)
            if file is None or file.closed:
                raise SyscallError(EBADF, f"select: fd {fd} not open")
            if file.quiet and fd not in wset:
                file.poll_callback_count += 1
                continue
            mask = file.driver_poll()
            if fd in rset and mask & (POLLIN | POLLERR | POLLHUP):
                readable.append(fd)
            if fd in wset and mask & (POLLOUT | POLLERR):
                writable.append(fd)
        return readable, writable

    # three bitmaps (read/write/except) copied in, three copied out --
    # proportional to maxfd, not to the number of watched fds
    bitmaps = ("select.bitmaps", 6 * words * costs.poll_copyin_per_fd,
               None)
    # the O(watched) driver scan ran under the big kernel lock in 2.2,
    # so on SMP it serializes against every other CPU's scan
    scan_part = ("select.scan", costs.poll_driver_callback * len(watched),
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
    waitqueue_cost = costs.poll_waitqueue_per_fd * len(watched)

    while True:
        readable, writable = scan()
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
        yield from sleep_on_files(sim, "select.wake", map(lookup, watched),
                                  remaining)
        yield cpu.consume_parts(kernel.under_bkl(scan_part), PRIO_USER)
