"""Generator-based simulated processes.

A process body is a Python generator.  It advances simulated time by
yielding one of:

* a ``float``/``int`` -- sleep that many simulated seconds;
* an :class:`~repro.sim.engine.Event` -- suspend until it triggers; the
  ``yield`` expression evaluates to the event's value;
* an :class:`AnyOf` -- suspend until the first of several events triggers;
  evaluates to ``(event, value)`` for the winner;
* a :class:`TimedWait` (built by :func:`wait_with_timeout`) -- suspend
  until an event triggers or a timeout expires; evaluates to
  ``(timed_out, value)``;
* :data:`GRANT` -- what :meth:`CPU.consume <repro.sim.resources.CPU.consume>`
  and ``consume_parts`` return to the process that issued the grant;
  suspend until the grant completes; evaluates to None.

Sub-steps compose with ``yield from``, so a syscall implemented as a
generator can be called from server code naturally::

    def handler(sys):
        data = yield from sys.read(fd, 4096)

Process failure is loud: an uncaught exception in a process body is
wrapped in :class:`ProcessCrashed` and re-raised out of ``Simulator.run``
so broken simulations never limp along silently.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, List, Optional, Tuple

from .engine import Event, SimulationError, Simulator


class ProcessCrashed(SimulationError):
    """An uncaught exception escaped a process body."""


class _Grant:
    __slots__ = ()

    def __repr__(self) -> str:
        return "GRANT"


#: The marker a CPU grant issued by a running process returns.  The CPU
#: records the process as the grant's one waiter and resumes it itself
#: when the grant completes, so no Event or callback is built per grant.
#: The process must yield the marker at once: yielding anything else
#: while the grant is pending, or issuing a second grant first, raises
#: :class:`SimulationError`.
GRANT = _Grant()
#: a process's ``_waiting_on`` while it waits on nothing: no process
#: body can yield it, so ``yielded is self._waiting_on`` holds only for
#: the marker of a pending grant
_NOTHING = object()


class AnyOf:
    """Yieldable that resumes on the first of several events.

    The yield expression evaluates to ``(event, value)`` of the winner.
    Callbacks registered on the losing events are removed so they do not
    resume the process a second time.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")


class TimedWait:
    """Yieldable behind :func:`wait_with_timeout`: an event or a timeout.

    One cancellable timer and one callback (the wait itself) per wait.
    The event side resumes the process from the event's own callback
    bounce; an expired timer bounces once through the ready queue, at
    the point where a timeout Event's callback would, so same-instant
    races resolve as they would for ``AnyOf([event, timeout_event])``:
    the first bounce queued wins and the other is a no-op.
    """

    __slots__ = ("event", "timer", "proc")

    def __init__(self, sim: Simulator, event: Event, timeout: float):
        self.event = event
        self.timer = sim.schedule(timeout, self._expire)
        self.proc: Optional["Process"] = None

    def _start(self, proc: "Process") -> None:
        self.proc = proc
        self.event.add_callback(self)

    def __call__(self, event: Event) -> None:
        """The event's bounce: resume unless the timeout already won."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        self.timer.cancel()
        proc._resume((False, event.value), None)

    def _expire(self) -> None:
        self.proc.sim._call_soon_unref(self._timed_out, ())

    def _timed_out(self) -> None:
        proc = self.proc
        if proc is None:
            return  # the event's bounce was queued first
        self.proc = None
        self.event.remove_callback(self)
        proc._resume((True, None), None)


class Process:
    """A running simulated process wrapping a generator body.

    A CPU grant the process issues (``yield cpu.consume(dt)``) returns
    :data:`GRANT`, and the process waits on it as the grant's one
    waiter: the CPU resumes it directly, inline when nothing else is due
    at the completion instant and otherwise through one ready-queue
    bounce, exactly where an Event's callback bounce would have been
    queued.  ``_waiting_on`` is :data:`GRANT` while such a grant is
    pending.
    """

    __slots__ = ("sim", "name", "gen", "done", "_waiting_on", "crashed",
                 "_resume_cb", "_on_event_cb")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "proc"):
        self.sim = sim
        self.name = name
        self.gen = gen
        #: Event triggered with the generator's return value when it finishes.
        self.done: Event = sim.event(f"{name}.done")
        #: what the process is parked on: GRANT, its AnyOf entries or
        #: _NOTHING
        self._waiting_on: Any = _NOTHING
        self.crashed: Optional[BaseException] = None
        # bound methods are allocated per access; the resume path runs
        # once per simulated step, so cache them
        self._resume_cb = self._resume
        self._on_event_cb = self._on_event
        sim._call_soon_unref(self._resume_cb, (None, None))

    # ------------------------------------------------------------------
    def _resume(self, send_value: Any, exc: Optional[BaseException]) -> None:
        if self.done.triggered or self.crashed is not None:
            return
        sim = self.sim
        gen = self.gen
        # Publish which process is executing while its generator runs so
        # observers (span tracing) can keep per-process state.  Saved and
        # restored rather than reset to None: _resume can nest when a
        # yielded value resolves synchronously.
        prev = sim.current_process
        sim.current_process = self
        try:
            # Trampoline: yields that resolve at the current instant
            # (already-triggered events, failed yields) loop here instead
            # of bouncing through the calendar.
            while True:
                try:
                    if exc is not None:
                        yielded = gen.throw(exc)
                        exc = None
                    else:
                        yielded = gen.send(send_value)
                except StopIteration as stop:
                    # the cached callbacks point back at this process:
                    # drop them so reference counting, not the cyclic
                    # collector, frees a finished process
                    self._resume_cb = self._on_event_cb = None
                    self.done.trigger(stop.value)
                    return
                except BaseException as err:  # noqa: BLE001 - deliberate crash propagation
                    self.crashed = err
                    self._resume_cb = self._on_event_cb = None
                    raise ProcessCrashed(
                        f"process {self.name!r} crashed at t={sim.now:.6f}: {err!r}"
                    ) from err
                if yielded is self._waiting_on:
                    return  # the CPU resumes it when the grant completes
                if self._waiting_on is GRANT:
                    exc = SimulationError(
                        f"process {self.name!r} yielded {yielded!r} while "
                        f"its CPU grant is pending")
                    send_value = None
                    continue
                if isinstance(yielded, Event):
                    if yielded.triggered:
                        # resume immediately with the value; no calendar
                        # bounce for an event that has already fired
                        send_value = yielded.value
                        continue
                    # open-coded Event.add_callback (hottest wait path)
                    callbacks = yielded._callbacks
                    if callbacks is None:
                        yielded._callbacks = {self._on_event_cb: None}
                    else:
                        callbacks[self._on_event_cb] = None
                    return
                if isinstance(yielded, (int, float)):
                    if yielded < 0:
                        exc = SimulationError(
                            f"process {self.name!r} slept {yielded}")
                        send_value = None
                        continue
                    sim._schedule_unref(float(yielded), self._resume_cb,
                                        (None, None))
                    return
                if isinstance(yielded, TimedWait):
                    yielded._start(self)
                    return
                if isinstance(yielded, AnyOf):
                    self._wait_any(yielded)
                    return
                exc = SimulationError(
                    f"process {self.name!r} yielded unsupported {yielded!r}")
                send_value = None
        finally:
            sim.current_process = prev

    def _on_event(self, event: Event) -> None:
        self._resume(event.value, None)

    # ------------------------------------------------------------------
    def _wait_any(self, anyof: AnyOf) -> None:
        entries: List[Tuple[Event, Any]] = []

        def make_cb(ev: Event):
            def cb(_event: Event) -> None:
                self._finish_any(entries, ev)

            return cb

        for ev in anyof.events:
            cb = make_cb(ev)
            entries.append((ev, cb))
        self._waiting_on = entries
        # Register after building the full list so an already-triggered
        # event (whose callback fires via the calendar) can deregister
        # every sibling.
        for ev, cb in entries:
            ev.add_callback(cb)

    def _finish_any(self, entries: List[Tuple[Event, Any]], winner: Event) -> None:
        if self._waiting_on is not entries:
            return  # a sibling already won
        self._waiting_on = _NOTHING
        for ev, cb in entries:
            if ev is not winner:
                ev.remove_callback(cb)
        self._resume((winner, winner.value), None)

    @property
    def alive(self) -> bool:
        return not self.done.triggered and self.crashed is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done.triggered else ("crashed" if self.crashed else "alive")
        return f"<Process {self.name!r} {state}>"


def spawn(sim: Simulator, gen: Generator, name: str = "proc") -> Process:
    """Start ``gen`` as a simulated process; it first runs at the current time."""
    return Process(sim, gen, name)


def sleep(delay: float):
    """Readable alias used inside process bodies: ``yield from sleep(0.5)``."""
    yield float(delay)


def wait(event: Event):
    """``yield from wait(ev)`` -- returns the event's value."""
    value = yield event
    return value


def wait_any(events: Iterable[Event]):
    """``yield from wait_any([a, b])`` -- returns ``(winner, value)``."""
    result = yield AnyOf(events)
    return result


def wait_with_timeout(sim: Simulator, event: Event, timeout: Optional[float]):
    """Wait for ``event`` or ``timeout`` seconds, whichever is first.

    Returns ``(timed_out, value)``.  ``timeout=None`` waits forever.
    A ``timeout`` of 0 still allows an already-triggered event to win:
    both fire at the same timestamp and the event's bounce is queued
    before the expired timer's.
    """
    if timeout is None:
        value = yield event
        return False, value
    result = yield TimedWait(sim, event, timeout)
    return result
