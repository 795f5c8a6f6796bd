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

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from .engine import Event, SimulationError, Simulator, Timer

PRIO_SOFTIRQ = 0
PRIO_USER = 1

_PRIORITIES = (PRIO_SOFTIRQ, PRIO_USER)


class CPU:
    """A single processor shared by interrupt and process work.

    ``consume()`` returns an Event that triggers when the requested slice
    has been executed; process code does ``yield cpu.consume(dt)`` or the
    ``yield from cpu.run(dt)`` sugar.

    One resident completion timer per CPU ends every grant: the running
    grant's state lives on the CPU (``_done``, plus ``_parts``/``_idx``/
    ``_prio``/``_stamps`` for a fused grant) and the timer is re-armed
    for each grant or part, so no timer or args tuple is built per grant.
    """

    def __init__(self, sim: Simulator, name: str = "cpu", speed: float = 1.0):
        if speed <= 0:
            raise SimulationError("CPU speed must be positive")
        self.sim = sim
        self.name = name
        #: relative speed multiplier; charges are divided by this, so a
        #: ``speed=2.0`` CPU does the same work in half the time.
        self.speed = speed
        #: position within an SMP domain (0 for uniprocessor kernels);
        #: stamped by the domain so profiler charges carry their CPU
        self.index = 0
        self._queues: Dict[int, Deque[Tuple[Event, float, Optional[str],
                                            Any]]] = {
            p: deque() for p in _PRIORITIES
        }
        # direct queue references for the dispatch hot path (the dict
        # lookup per grant shows up at millions of events)
        self._q_softirq = self._queues[PRIO_SOFTIRQ]
        self._q_user = self._queues[PRIO_USER]
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
        #: the running grant: its completion Event (None for nowait) and,
        #: for a fused grant, its parts, running part, priority and stamps
        #: (read only while that grant runs)
        self._done: Optional[Event] = None
        self._parts = None
        self._idx = 0
        self._prio = PRIO_USER
        self._stamps: Optional[list] = None

    # ------------------------------------------------------------------
    def consume(self, duration: float, priority: int = PRIO_USER,
                category: str = "other",
                breakdown: Optional[Tuple[Tuple[str, float], ...]] = None,
                nowait: bool = False) -> Optional[Event]:
        """Request ``duration`` seconds of CPU; returns the completion Event.

        ``breakdown`` optionally itemizes the charge for an attached
        profiler as (operation, seconds) parts summing to ``duration``;
        it does not affect scheduling or ``busy_by_category``.

        ``nowait`` marks a fire-and-forget charge (softirq work): no
        completion Event is allocated and None is returned; scheduling
        and accounting are otherwise identical.
        """
        if duration < 0:
            raise SimulationError(f"negative CPU charge: {duration}")
        queues = self._queues
        if priority not in queues:
            raise SimulationError(f"unknown CPU priority {priority}")
        sim = self.sim
        done = None if nowait else Event(sim, self._grant_name)
        speed = self.speed
        # Fast path: with no profiler attached the breakdown can never
        # be read, so drop it here instead of speed-scaling and carrying
        # it through the queue on every grant.
        if breakdown is not None:
            if self.profiler is None:
                breakdown = None
            elif speed != 1.0:
                breakdown = tuple((op, s / speed) for op, s in breakdown)
        if speed != 1.0:
            duration = duration / speed
        if self._busy:
            queues[priority].append((done, duration, category, breakdown))
        else:
            # Idle fast path: the grant starts now, so skip the queue
            # tuple and dispatch inline.  (Not busy implies both queues
            # are empty -- _dispatch only clears _busy once they are.)
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
            sim._arm(timer, duration)
        return done

    def consume_parts(self, parts,
                      priority: int = PRIO_USER,
                      stamps: Optional[list] = None,
                      nowait: bool = False) -> Optional[Event]:
        """One externally-visible grant covering several sequential parts.

        Fused-charge API: ``parts`` is a sequence of ``(category,
        seconds, breakdown)`` tuples.  Scheduling and accounting are
        *exactly* equivalent to issuing each part as its own
        back-to-back ``consume()`` -- every part occupies its own FIFO
        slice, so softirq work enqueued mid-part still interposes at
        the same boundaries, and ``busy_by_category``/the profiler see
        each part individually at its own start time.  What fusion
        removes is the k-1 intermediate completion Events and process
        suspend/resume round-trips: only the final part triggers the
        returned Event.

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
        queues = self._queues
        if priority not in queues:
            raise SimulationError(f"unknown CPU priority {priority}")
        parts = list(parts)
        for _category, seconds, _breakdown in parts:
            if not callable(seconds) and seconds < 0:
                raise SimulationError(f"negative CPU charge: {seconds}")
        sim = self.sim
        done = None if nowait else Event(sim, self._grant_name)
        # skip leading zero parts now, evaluating lazy ones (a caller
        # charging part by part would do both at issue time)
        idx = 0
        seconds = parts[0][1] if parts else 0
        if not seconds or callable(seconds):
            idx = self._next_part(parts, 0, stamps)
        if idx >= len(parts):
            if done is not None:
                done.trigger(None)
            return done
        if self._busy:
            # category=None marks a fused entry; the payload carries the
            # remaining (unscaled) parts and the resume index
            queues[priority].append((done, 0.0, None, (parts, idx, stamps)))
        else:
            self._busy = True
            self._run_part(done, parts, idx, priority, stamps)
        return done

    def run(self, duration: float, priority: int = PRIO_USER,
            category: str = "other"):
        """Generator sugar: ``yield from cpu.run(dt)`` inside a process."""
        yield self.consume(duration, priority, category)

    # ------------------------------------------------------------------
    def _next_part(self, parts: list, idx: int,
                   stamps: Optional[list]) -> int:
        """Index of the first non-zero part at or after ``idx``.

        Runs at a part boundary (or at issue): lazy parts met on the way
        are evaluated now and replaced by their value, and every skipped
        zero-length part is stamped with the boundary instant.
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

    def _run_part(self, done: Optional[Event], parts, idx: int,
                  priority: int, stamps: Optional[list]) -> None:
        """Start the (non-zero) part at ``idx`` of a fused grant.

        Accounting happens here, at part start, exactly as ``consume``
        accounts at grant start.  The invariant maintained by
        ``consume_parts``/``_part_finish`` is that ``parts[idx]`` is
        never zero-length when this runs.
        """
        category, seconds, breakdown = parts[idx]
        speed = self.speed
        if speed != 1.0:
            seconds = seconds / speed
        if breakdown is not None:
            if self.profiler is None:
                breakdown = None
            elif speed != 1.0:
                breakdown = tuple((op, s / speed) for op, s in breakdown)
        self.busy_time += seconds
        by_cat = self.busy_by_category
        by_cat[category] = by_cat.get(category, 0.0) + seconds
        if self.profiler is not None:
            self.profiler.record(category, seconds, breakdown,
                                 cpu=self.index)
        self._done = done
        self._parts = parts
        self._idx = idx
        self._prio = priority
        self._stamps = stamps
        timer = self._timer
        timer.fn = self._part_done
        self.sim._arm(timer, seconds)

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
        done = self._done
        priority = self._prio
        # Re-enter the FIFO exactly where a back-to-back consume() from
        # the resumed process would have landed, so softirq enqueued
        # during this part still interposes at the same boundary.  Fast
        # path: if nothing at this or higher priority is queued, the
        # dispatch would pop this continuation right back -- skip the
        # queue bounce and start the next part directly.
        if not self._q_softirq and (priority == PRIO_SOFTIRQ
                                    or not self._q_user):
            self._run_part(done, parts, idx, priority, stamps)
            return
        self._queues[priority].append((done, 0.0, None, (parts, idx, stamps)))
        self._dispatch()

    def _dispatch(self) -> None:
        queue = self._q_softirq
        prio = PRIO_SOFTIRQ
        if not queue:
            queue = self._q_user
            prio = PRIO_USER
            if not queue:
                self._busy = False
                return
        done, duration, category, payload = queue.popleft()
        self._busy = True
        if category is None:
            parts, idx, stamps = payload
            self._run_part(done, parts, idx, prio, stamps)
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
        self.sim._arm(timer, duration)

    def _finish(self) -> None:
        """The running grant is over: wake its waiter, start the next grant.

        Triggering ``done`` would queue one bounce per waiter on the
        ready queue.  With a single waiter, no ready entry pending and
        nothing else due at this instant, that bounce is provably the
        next entry to fire -- dispatching the next grant only adds a
        later one -- so the waiter runs inline, right after the dispatch,
        and the engine skips the event.  Otherwise (several waiters,
        ready work pending, another entry due now such as a second CPU
        completing at the same instant) the trigger queues the bounces
        as usual.
        """
        done = self._done
        if done is not None:
            self._done = None
            callbacks = done._callbacks
            # nothing else due now: no ready entry pending, no hot entry
            # at ``now`` (far timers are always due after ``now``)
            sim = self.sim
            heap = sim._heap
            if (callbacks is not None and len(callbacks) == 1
                    and sim._ready_head >= len(sim._ready)
                    and (not heap or heap[0][0] > sim.now)):
                done.triggered = True
                done._callbacks = None
                self._dispatch()
                (waiter,) = callbacks
                waiter(done)
                return
            done.trigger(None)
        self._dispatch()

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

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
