"""Shared resources: CPUs and FIFO channels.

The CPU model is the heart of the reproduction.  The paper's results are
entirely about where a small server machine's CPU cycles go (per-fd poll
scans versus per-event syscalls versus copies), so every simulated kernel
and userspace operation charges time against a :class:`CPU`.

The CPU is a non-preemptive priority FIFO with two levels:

* ``PRIO_SOFTIRQ`` -- interrupt/softirq work (packet rx/tx processing).
  Models the bursty interrupt load the paper attributes to many
  high-latency clients.
* ``PRIO_USER`` -- syscall and userspace work.

Grants are short (individual syscall steps), so non-preemption is a good
approximation of a 2.2-era uniprocessor kernel, which did not preempt
kernel-mode execution either.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from .engine import Event, SimulationError, Simulator, Timer
from .process import GRANT, _NOTHING, Process

_heappush = heapq.heappush
_heappop = heapq.heappop

PRIO_SOFTIRQ = 0
PRIO_USER = 1


def _pending(proc: Process) -> SimulationError:
    return SimulationError(
        f"process {proc.name!r} issued a CPU grant while waiting on one")


class CPU:
    """A single processor shared by interrupt and process work.

    A grant has at most one waiter.  Issued by a running process,
    ``consume()`` makes that process the waiter and returns the
    :data:`~repro.sim.process.GRANT` marker, which the process must
    yield at once (``yield cpu.consume(dt)``, or the ``yield from
    cpu.run(dt)`` sugar); the CPU resumes it when the slice has been
    executed.  Issued outside a process (plain callbacks, tests, the
    harness), it returns an Event that triggers then.  A charge that no
    process waits on -- softirq work, a lock wait charged beside the
    grant the process does wait on -- passes ``nowait=True`` and gets
    None.

    One resident completion timer per CPU ends every grant: the running
    grant's state lives on the CPU (``_done``, plus ``_parts``/``_idx``/
    ``_prio``/``_stamps`` for a fused grant) and the timer is re-armed
    in place for each grant or part, so no timer or args tuple is built
    per grant.

    What does not change per grant is decided once: the speed, fixed at
    construction, sets ``_scaled``, and each priority has its own queue
    attribute.  Every argument check still runs, and raises, when the
    grant is issued.
    """

    def __init__(self, sim: Simulator, name: str = "cpu", speed: float = 1.0):
        if speed <= 0:
            raise SimulationError("CPU speed must be positive")
        self.sim = sim
        self.name = name
        #: relative speed multiplier; charges are divided by this, so a
        #: ``speed=2.0`` CPU does the same work in half the time.  Fixed
        #: for the CPU's life.
        self.speed = speed
        #: whether charges are scaled at all (speed is not 1.0)
        self._scaled = speed != 1.0
        #: position within an SMP domain (0 for uniprocessor kernels);
        #: stamped by the domain so profiler charges carry their CPU
        self.index = 0
        #: one FIFO per priority of queued grants ``(waiter, seconds,
        #: category, breakdown)``, or ``(waiter, 0.0, None, (parts, idx,
        #: stamps))`` for a fused grant
        self._q_softirq: Deque[Tuple[Any, float, Optional[str], Any]] = deque()
        self._q_user: Deque[Tuple[Any, float, Optional[str], Any]] = deque()
        self._busy = False
        self.busy_time = 0.0
        self.busy_by_category: Dict[str, float] = {}
        #: optional repro.obs.profiler.CpuProfiler; when attached, every
        #: dispatched grant is attributed to a (subsystem, operation) pair
        self.profiler = None
        self._created_at = sim.now
        #: grant-Event name, built once (consume() runs per syscall step)
        self._grant_name = name + ".grant"
        #: resident completion timer, re-armed per grant or fused part;
        #: its callback is ``_finish`` or, for a fused grant,
        #: ``_part_finish`` (both bound once: one per grant shows up)
        self._grant_done = self._finish
        self._part_done = self._part_finish
        self._timer = Timer(0.0, 0, self._grant_done, ())
        #: the running grant: its waiting Process, its completion Event
        #: (issued outside a process) or None (nowait) and, for a fused
        #: grant, its parts, running part, priority and stamps (read only
        #: while that grant runs)
        self._done: Any = None
        self._parts = None
        self._idx = 0
        self._prio = PRIO_USER
        self._stamps: Optional[list] = None

    # ------------------------------------------------------------------
    def consume(self, duration: float, priority: int = PRIO_USER,
                category: str = "other",
                breakdown: Optional[Tuple[Tuple[str, float], ...]] = None,
                nowait: bool = False):
        """Request ``duration`` seconds of CPU.

        Returns :data:`~repro.sim.process.GRANT` to a running process,
        which must yield it at once and is resumed when the slice has
        been executed; outside a process, the completion Event.

        ``breakdown`` optionally itemizes the charge for an attached
        profiler as (operation, seconds) parts summing to ``duration``;
        it does not affect scheduling or ``busy_by_category``.

        ``nowait`` marks a charge no one waits on (softirq work, a lock
        wait charged beside the grant the process waits on): it has no
        waiter and None is returned; scheduling and accounting are
        otherwise identical.
        """
        if duration < 0:
            raise SimulationError(f"negative CPU charge: {duration}")
        if priority == PRIO_USER:
            queue = self._q_user
        elif priority == PRIO_SOFTIRQ:
            queue = self._q_softirq
        else:
            raise SimulationError(f"unknown CPU priority {priority}")
        sim = self.sim
        if nowait:
            done = result = None
        else:
            done = sim.current_process
            if done is None:
                done = result = Event(sim, self._grant_name)
            elif done._waiting_on is GRANT:
                raise _pending(done)
            else:
                done._waiting_on = result = GRANT
        # Fast path: with no profiler attached the breakdown can never
        # be read, so drop it here instead of speed-scaling and carrying
        # it through the queue on every grant.
        if breakdown is not None:
            if self.profiler is None:
                breakdown = None
            elif self._scaled:
                speed = self.speed
                breakdown = tuple((op, s / speed) for op, s in breakdown)
        if self._scaled:
            duration = duration / self.speed
        if self._busy:
            queue.append((done, duration, category, breakdown))
        else:
            # Idle fast path: the grant starts now, so skip the queue
            # tuple and dispatch inline.  (Not busy implies both queues
            # are empty -- _finish only clears _busy once they are.)
            self._busy = True
            self.busy_time += duration
            by_cat = self.busy_by_category
            by_cat[category] = by_cat.get(category, 0.0) + duration
            if self.profiler is not None:
                self.profiler.record(category, duration, breakdown,
                                     cpu=self.index)
            self._done = done
            timer = self._timer
            timer.fn = self._grant_done
            # re-arm the resident timer in place (no Simulator call)
            time = sim.now + duration
            sim._seq = seq = sim._seq + 1
            timer.time = time
            timer.seq = seq
            if duration < sim.FAR_DELAY:
                _heappush(sim._heap, (time, seq, timer))
            else:
                sim._push_far(timer)
        return result

    def consume_parts(self, parts,
                      priority: int = PRIO_USER,
                      stamps: Optional[list] = None,
                      nowait: bool = False):
        """One externally-visible grant covering several sequential parts.

        Fused-charge API: ``parts`` is a sequence of ``(category,
        seconds, breakdown)`` tuples.  Scheduling and accounting are
        *exactly* equivalent to issuing each part as its own
        back-to-back ``consume()`` -- every part occupies its own FIFO
        slice, so softirq work enqueued mid-part still interposes at
        the same boundaries, and ``busy_by_category``/the profiler see
        each part individually at its own start time.  What fusion
        removes is the k-1 intermediate completions and process
        suspend/resume round-trips: only the final part resumes the
        waiting process (or triggers the returned Event).  What is
        returned, and ``nowait``, are as for :meth:`consume`; a grant
        whose parts all come to zero is over at issue and returns a
        triggered Event (None with ``nowait``), which a process yielding
        it continues past at once.

        ``stamps``, when given, receives ``sim.now`` once per part (in
        order, including zero-length parts) as each completes, so a
        caller can read boundary clocks -- poll()'s relative-timeout
        arithmetic -- without waking at the boundary.

        Zero-second parts are skipped exactly as a caller charging part
        by part skips zero charges: no grant, no category key, no time.

        A *lazy* part carries a callable ``seconds(cpu)`` instead of a
        number -- a lock wait, whose length depends on who holds the
        lock when this grant gets there.  It is evaluated, with the CPU
        running the grant, at the completion instant of the part before
        it (at issue when it leads): where a process charging the parts
        one by one would have resumed and asked for the lock -- before
        any softirq work queued meanwhile gets the CPU.  Its value then
        counts like any other part's, zero included.
        """
        if len(parts) == 1 and stamps is None:
            category, seconds, breakdown = parts[0]
            if seconds.__class__ is float and seconds > 0:
                # one plain part is exactly a consume() grant; take its
                # cheaper path (DP_POLL and epoll_wait scans, rescans)
                return self.consume(seconds, priority, category, breakdown,
                                    nowait)
        if priority == PRIO_USER:
            queue = self._q_user
        elif priority == PRIO_SOFTIRQ:
            queue = self._q_softirq
        else:
            raise SimulationError(f"unknown CPU priority {priority}")
        lazy = False
        for _category, seconds, _breakdown in parts:
            if callable(seconds):
                lazy = True
            elif seconds < 0:
                raise SimulationError(f"negative CPU charge: {seconds}")
        if lazy:
            # a lazy part is replaced by its value when it is reached;
            # the caller's parts are left as they were
            parts = list(parts)
        sim = self.sim
        # skip leading zero parts now, evaluating lazy ones (a caller
        # charging part by part would do both at issue time)
        idx = 0
        seconds = parts[0][1] if parts else 0
        if not seconds or callable(seconds):
            idx = self._next_part(parts, 0, stamps)
        if idx >= len(parts):
            if nowait:
                return None
            done = Event(sim, self._grant_name)
            done.trigger(None)
            return done
        if nowait:
            done = result = None
        else:
            done = sim.current_process
            if done is None:
                done = result = Event(sim, self._grant_name)
            elif done._waiting_on is GRANT:
                raise _pending(done)
            else:
                done._waiting_on = result = GRANT
        if self._busy:
            # category=None marks a fused entry; the payload carries the
            # remaining (unscaled) parts and the resume index
            queue.append((done, 0.0, None, (parts, idx, stamps)))
        else:
            self._busy = True
            self._done = done
            self._parts = parts
            self._prio = priority
            self._stamps = stamps
            self._run_part(idx)
        return result

    def run(self, duration: float, priority: int = PRIO_USER,
            category: str = "other"):
        """Generator sugar: ``yield from cpu.run(dt)`` inside a process."""
        yield self.consume(duration, priority, category)

    # ------------------------------------------------------------------
    def _next_part(self, parts, idx: int,
                   stamps: Optional[list]) -> int:
        """Index of the first non-zero part at or after ``idx``.

        Runs at a part boundary (or at issue): lazy parts met on the way
        are evaluated now and replaced by their value (``parts`` is then
        a list), and every skipped zero-length part is stamped with the
        boundary instant.
        """
        nparts = len(parts)
        while idx < nparts:
            category, seconds, breakdown = parts[idx]
            if callable(seconds):
                seconds = seconds(self)
                parts[idx] = (category, seconds, breakdown)
            if seconds != 0:
                break
            if stamps is not None:
                stamps.append(self.sim.now)
            idx += 1
        return idx

    def _run_part(self, idx: int) -> None:
        """Start the (non-zero) part at ``idx`` of the running fused grant,
        whose waiter, parts, priority and stamps are already on the CPU
        (a grant's next part starts in place).

        Accounting happens here, at part start, exactly as ``consume``
        accounts at grant start.  The invariant maintained by
        ``consume_parts``/``_part_finish`` is that ``parts[idx]`` is
        never zero-length when this runs.
        """
        category, seconds, breakdown = self._parts[idx]
        self._idx = idx
        profiler = self.profiler
        if self._scaled:
            speed = self.speed
            seconds = seconds / speed
            if breakdown is not None and profiler is not None:
                breakdown = tuple((op, s / speed) for op, s in breakdown)
        self.busy_time += seconds
        by_cat = self.busy_by_category
        by_cat[category] = by_cat.get(category, 0.0) + seconds
        if profiler is not None:
            profiler.record(category, seconds, breakdown, cpu=self.index)
        timer = self._timer
        timer.fn = self._part_done
        sim = self.sim
        time = sim.now + seconds
        sim._seq = seq = sim._seq + 1
        timer.time = time
        timer.seq = seq
        if seconds < sim.FAR_DELAY:
            _heappush(sim._heap, (time, seq, timer))
        else:
            sim._push_far(timer)

    def _part_finish(self) -> None:
        """A fused grant's part completed; continue or finish the grant.

        Zero-length follow-up parts are skipped, and lazy ones
        evaluated, here at the boundary instant, matching a caller
        charging part by part, which would do both synchronously on
        resume -- before any softirq work queued behind this grant gets
        the CPU.
        """
        parts = self._parts
        stamps = self._stamps
        if stamps is not None:
            stamps.append(self.sim.now)
        idx = self._idx + 1
        if idx < len(parts):
            seconds = parts[idx][1]
            # most boundaries lead straight into a plain non-zero part
            if not seconds or callable(seconds):
                idx = self._next_part(parts, idx, stamps)
        if idx >= len(parts):
            self._finish()
            return
        # Re-enter the FIFO exactly where a back-to-back consume() from
        # the resumed process would have landed, so softirq enqueued
        # during this part still interposes at the same boundary.  Fast
        # path: if nothing at this or higher priority is queued, the
        # dispatch would pop this continuation right back -- skip the
        # queue bounce and start the next part directly.
        softirq = self._prio == PRIO_SOFTIRQ
        if not self._q_softirq and (softirq or not self._q_user):
            self._run_part(idx)
            return
        queue = self._q_softirq if softirq else self._q_user
        queue.append((self._done, 0.0, None, (parts, idx, stamps)))
        self._dispatch()

    def _dispatch(self) -> None:
        """Start the next queued grant (a queue is not empty)."""
        queue = self._q_softirq
        prio = PRIO_SOFTIRQ
        if not queue:
            queue = self._q_user
            prio = PRIO_USER
        done, duration, category, payload = queue.popleft()
        if category is None:
            self._done = done
            self._parts, idx, self._stamps = payload
            self._prio = prio
            self._run_part(idx)
            return
        self.busy_time += duration
        by_cat = self.busy_by_category
        by_cat[category] = by_cat.get(category, 0.0) + duration
        if self.profiler is not None:
            self.profiler.record(category, duration, payload,
                                 cpu=self.index)
        self._done = done
        timer = self._timer
        timer.fn = self._grant_done
        sim = self.sim
        time = sim.now + duration
        sim._seq = seq = sim._seq + 1
        timer.time = time
        timer.seq = seq
        if duration < sim.FAR_DELAY:
            _heappush(sim._heap, (time, seq, timer))
        else:
            sim._push_far(timer)

    def _finish(self) -> None:
        """The running grant is over: wake its waiter, start the next grant.

        A waiting process is resumed through one ready-queue bounce,
        queued where an Event's callback bounce would be.  With no ready
        entry pending and nothing else due at this instant, that bounce
        is provably the next entry to fire -- dispatching the next grant
        only adds a later one -- so the process runs inline instead,
        right after the dispatch.  Otherwise (ready work pending, or
        another live entry due now, such as a second CPU completing at
        the same instant) the bounce is queued.  Cancelled entries at
        the hot head due now are dropped first, as the run loop would
        drop them, so the choice does not depend on when the hot heap
        was last compacted.  An Event (a grant issued outside a
        process) is triggered.
        """
        done = self._done
        resume = None
        if done is not None:
            self._done = None
            if done.__class__ is Event:
                done.trigger(None)
            else:
                done._waiting_on = _NOTHING
                # nothing else due now: no ready entry pending, no live
                # hot entry at ``now`` (far timers are always due after it)
                sim = self.sim
                heap = sim._heap
                if sim._ready_head < len(sim._ready):
                    sim._call_soon_unref(Process._resume, (done, None, None))
                elif not heap or heap[0][0] > sim.now:
                    resume = done
                else:
                    while heap[0][2].cancelled:
                        _heappop(heap)
                        sim._cancelled_pending -= 1
                        if not heap or heap[0][0] > sim.now:
                            resume = done
                            break
                    else:
                        sim._call_soon_unref(Process._resume,
                                             (done, None, None))
        if self._q_softirq or self._q_user:
            self._dispatch()
        else:
            self._busy = False
        if resume is not None:
            resume._resume(None, None)

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return len(self._q_softirq) + len(self._q_user)

    def utilization(self, since: Optional[float] = None) -> float:
        """Fraction of wall-clock time this CPU has been busy."""
        start = self._created_at if since is None else since
        elapsed = self.sim.now - start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CPU {self.name!r} busy={self._busy} queued={self.queued}>"


class Channel:
    """Unbounded FIFO of messages with blocking get.

    Used for in-test plumbing and client-side coordination.  Kernel-level
    message passing (UNIX domain sockets in phhttpd's overflow handoff)
    is modelled separately with cost accounting.
    """

    def __init__(self, sim: Simulator, name: str = "chan"):
        self.sim = sim
        self.name = name
        self._items: Deque = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item) -> None:
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Returns an Event carrying the next item; ``yield chan.get()``."""
        ev = self.sim.event(f"{self.name}.get")
        if self._items:
            ev.trigger(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
