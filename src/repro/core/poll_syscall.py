"""Classic ``poll(2)``, with the cost structure the paper sets out to fix.

Per invocation the kernel must (section 3.1):

1. copy the entire interest set in (`poll_copyin_per_fd` x n);
2. invoke every file's device-driver poll callback
   (`poll_driver_callback` x n) -- "even though the status of only one
   file descriptor in hundreds or thousands might have changed";
3. if nothing is ready, register on every file's wait queue and sleep
   (`poll_waitqueue_per_fd` x n -- the expensive wait_queue manipulation
   Brown suspects, section 6), then rescan after wakeup;
4. copy results back out (`poll_copyout_per_ready` x ready).

All four terms scale with the interest-set size; /dev/poll attacks 1, 2,
and 4, and its hints attack 2 again.  The function returns only ready
descriptors as ``[(fd, revents), ...]``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..kernel.constants import POLL_ALWAYS, POLLNVAL
from ..kernel.task import Task
from ..kernel.waitqueue import WaitEntry
from ..sim.process import wait_with_timeout
from ..sim.resources import PRIO_USER


def sys_poll(task: Task, interests: Sequence[Tuple[int, int]],
             timeout: Optional[float], deadline_abs: Optional[float] = None,
             build_part=None, tail_parts=()):
    """Generator implementing poll(); called via SyscallInterface.poll.

    The syscall entry, the copyin and the first scan go out as one
    fused grant -- each still its own FIFO slice, so interrupt work
    interposes identically -- led by the caller's userspace
    ``build_part`` (its pollfd array build) when there is one; on SMP a
    big-kernel-lock part precedes every scan.  The copyout plus the
    caller's ``tail_parts`` (its revents scan) fuse on the way out.  The
    boundary stamps supply the call's two clock reads: the relative
    timeout derived from ``deadline_abs`` after the build, and the
    absolute wakeup deadline pinned after the copyin.
    """
    kernel = task.kernel
    fused = kernel.fused
    cpu = kernel.cpu
    sim = kernel.sim
    n = len(interests)

    def scan():
        """Invoke the driver poll callback on every descriptor."""
        ready: List[Tuple[int, int]] = []
        for fd, events in interests:
            file = task.fdtable.lookup(fd)
            if file is None or file.closed:
                ready.append((fd, POLLNVAL))
                continue
            mask = file.driver_poll() & (events | POLL_ALWAYS)
            if mask:
                ready.append((fd, mask))
        return ready

    def wait_for_ready(remaining: Optional[float]):
        # 3. nothing ready: hang a wait-queue entry on every file
        wake = sim.event("poll.wake")
        entries: List[WaitEntry] = []

        def on_wake(*_args) -> None:
            if not wake.triggered:
                wake.trigger(None)

        for fd, _events in interests:
            file = task.fdtable.lookup(fd)
            if file is not None and not file.closed:
                entries.append(file.wait_queue.add(on_wake, autoremove=False))
        try:
            yield from wait_with_timeout(sim, wake, remaining)
        finally:
            for entry in entries:
                entry.queue.remove(entry)

    # 1. copy in the whole interest set; 2. one driver callback per
    # descriptor -- under the big kernel lock, so on SMP the whole O(n)
    # walk serializes against every other CPU's scan
    scan_cost = fused.poll_scan_per_fd * n
    scan_part = ("poll.scan", scan_cost, (("driver_callback", scan_cost),))
    head = (fused.entry_part,
            ("poll.copyin", fused.poll_copyin_per_fd * n, None))
    if build_part is not None:
        head = (build_part,) + head
    issued_at = sim.now
    stamps: List[float] = []
    yield cpu.consume_parts(head + kernel.under_bkl(scan_part), PRIO_USER,
                            stamps=stamps)
    if timeout is None and deadline_abs is not None:
        # the caller derives its relative timeout after its build
        built_at = stamps[0] if build_part is not None else issued_at
        timeout = max(0.0, deadline_abs - built_at)
    deadline = None if timeout is None else stamps[len(head) - 1] + timeout
    waitqueue_cost = fused.poll_waitqueue_per_fd * n

    while True:
        ready = scan()
        if kernel.tracer.enabled:
            kernel.trace("poll", f"scan n={n} ready={len(ready)}")
        if ready or timeout == 0:
            # 4. copy out the results
            yield cpu.consume_parts(
                (("poll.copyout", fused.poll_copyout_per_ready * len(ready),
                  None),) + tuple(tail_parts), PRIO_USER)
            return ready
        remaining: Optional[float] = None
        if deadline is not None:
            remaining = deadline - sim.now
            if remaining <= 0:
                if tail_parts:
                    yield cpu.consume_parts(tuple(tail_parts), PRIO_USER)
                return []
        if waitqueue_cost > 0:
            yield cpu.consume(waitqueue_cost, PRIO_USER, "poll.waitqueue")
        yield from wait_for_ready(remaining)
        # loop around: rescan (and notice deadline expiry)
        yield cpu.consume_parts(kernel.under_bkl(scan_part), PRIO_USER)
