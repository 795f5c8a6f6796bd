"""The kernel ``struct file`` analogue.

A :class:`File` owns the pieces every event-notification interface in the
paper hangs off:

* a :class:`~repro.kernel.waitqueue.WaitQueue` that blocking readers,
  writers, and classic ``poll()`` sleep on;
* a *fasync* registration (``F_SETOWN`` + ``F_SETSIG`` + ``O_ASYNC``) that
  turns readiness transitions into queued POSIX RT signals;
* a list of *status listeners* -- the hook /dev/poll backmaps use to
  receive device-driver hints (section 3.2).  The ``supports_hints``
  class flag models the paper's opt-in scheme in which only essential
  (network) drivers are modified;
* a host-side ``quiet`` bit.  A driver that reports every rise of a
  readiness bit other than ``POLLOUT`` through :meth:`File.notify` (the
  contract hints rely on; only sockets declare it) sets it when its
  poll callback reads no such bit, and ``notify()`` clears it.  The
  O(n) scans then skip the host call for a quiet file whose caller
  asks nothing of ``POLLOUT``, while still counting and charging the
  simulated callback.

Subclasses (sockets, the /dev/poll device, pipes) implement the file
operations as generator methods so they can charge CPU and block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..sim.engine import SimulationError
from .constants import EINVAL, O_ASYNC, POLLIN, POLLOUT, SyscallError
from .waitqueue import WaitQueue

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel
    from .task import Task

#: signature: listener(file, band_mask) -> None
StatusListener = Callable[["File", int], None]


class File:
    """Base class for all open-file objects."""

    file_type = "file"
    #: True for drivers modified to post hints to /dev/poll backmaps.
    supports_hints = False
    #: True when do_write accepts an ``entry_part`` kwarg and can fuse
    #: the syscall-entry charge with its own (the /dev/poll device).
    fuse_write_entry = False

    def __init__(self, kernel: "Kernel", name: str = "file"):
        self.kernel = kernel
        self.name = name
        self.wait_queue = WaitQueue(kernel.sim, f"{name}.wq")
        self.f_flags: int = 0
        self.refcount: int = 0
        self.closed = False
        # fasync state (fcntl F_SETOWN / F_SETSIG / O_ASYNC)
        self.async_owner: Optional["Task"] = None
        self.async_sig: int = 0
        self.async_fd: int = -1  # fd number reported in siginfo
        self._status_listeners: List[StatusListener] = []
        #: called once, with the file, when the last reference drops;
        #: epoll uses this to collect interests on closed descriptors
        self._close_listeners: List[Callable[["File"], None]] = []
        #: driver poll callbacks counted against this file, made or
        #: skipped, except those a poll table still credits lazily (see
        #: :attr:`poll_callback_count`)
        self.settled_callbacks = 0
        #: no readiness but POLLOUT since the last callback (see above)
        self.quiet = False

    # ------------------------------------------------------------------
    # readiness
    # ------------------------------------------------------------------
    def poll_mask(self) -> int:
        """Driver poll callback: the file's current readiness bits.

        Cost accounting happens at the call sites (poll implementations),
        because what the *caller* pays is the point of the paper.
        """
        raise NotImplementedError

    def driver_poll(self) -> int:
        """poll_mask() plus instrumentation; what poll()/DP_POLL invoke."""
        self.settled_callbacks += 1
        return self.poll_mask()

    @property
    def poll_callback_count(self) -> int:
        """Driver poll callbacks counted against this file: every scan
        that covered it, whether it made the host call or skipped a
        quiet file.  The hints ablation asserts this drops when hinting
        is on.  A poll table that skips a quiet file credits the scans
        lazily (:mod:`repro.core.poll_table`); they are added here."""
        count = self.settled_callbacks
        for entry in self.wait_queue.poll_entries():
            count += entry.owner.credit(entry)
        return count

    @poll_callback_count.setter
    def poll_callback_count(self, value: int) -> None:
        self.settled_callbacks += value - self.poll_callback_count

    def add_status_listener(self, listener: StatusListener) -> None:
        self._status_listeners.append(listener)

    def remove_status_listener(self, listener: StatusListener) -> None:
        try:
            self._status_listeners.remove(listener)
        except ValueError:
            pass

    def add_close_listener(self, listener: Callable[["File"], None]) -> None:
        self._close_listeners.append(listener)

    def remove_close_listener(self, listener: Callable[["File"], None]) -> None:
        try:
            self._close_listeners.remove(listener)
        except ValueError:
            pass

    def notify(self, band: int) -> None:
        """Report a status change (driver/interrupt context).

        Wakes poll sleepers, marks /dev/poll hints via status listeners,
        and queues an RT signal if fasync is armed.
        """
        self.quiet = False
        if self.kernel.causal.enabled:
            self.kernel.causal.ready(self.kernel.sim.now, self, band)
        self.wait_queue.wake_all(self, band)
        for listener in list(self._status_listeners):
            listener(self, band)
        if self.async_owner is not None and (self.f_flags & O_ASYNC):
            self.kernel.signals.kill_fasync(self, band)

    # ------------------------------------------------------------------
    # file operations: generator methods charging CPU; overridden by
    # subclasses.  ``task`` is the calling task (for blocking context).
    # ------------------------------------------------------------------
    def do_read(self, task: "Task", nbytes: int):
        raise SyscallError(EINVAL, f"read not supported on {self.file_type}")
        yield  # pragma: no cover - makes this a generator

    def do_write(self, task: "Task", data: bytes):
        raise SyscallError(EINVAL, f"write not supported on {self.file_type}")
        yield  # pragma: no cover

    def do_ioctl(self, task: "Task", op: int, arg):
        raise SyscallError(EINVAL, f"ioctl not supported on {self.file_type}")
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def get(self) -> "File":
        if self.closed:
            raise SimulationError(f"reviving closed file {self.name}")
        self.refcount += 1
        return self

    def put(self) -> None:
        if self.refcount <= 0:
            raise SimulationError(f"refcount underflow on {self.name}")
        self.refcount -= 1
        if self.refcount == 0:
            self.closed = True
            self.on_release()

    def on_release(self) -> None:
        """Last reference dropped; subclasses tear down state here."""
        # A close completing is itself a reportable event (the paper:
        # "the kernel raises the assigned signal whenever a read(),
        # write(), or close() operation completes").
        for listener in list(self._close_listeners):
            listener(self)
        self._close_listeners.clear()
        self._status_listeners.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} refs={self.refcount}>"


class NullFile(File):
    """A do-nothing file: always readable and writable; used in tests."""

    file_type = "null"

    def poll_mask(self) -> int:
        return POLLIN | POLLOUT

    def do_read(self, task: "Task", nbytes: int):
        if False:
            yield
        return b""

    def do_write(self, task: "Task", data: bytes):
        if False:
            yield
        return len(data)
