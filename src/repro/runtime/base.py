"""The :class:`Runtime` protocol: one server stack, many substrates.

The paper's claims are about where *real* kernel CPU time goes per
readiness mechanism; the reproduction models that with
:mod:`repro.kernel`.  The runtime layer makes the substrate a
constructor argument: servers build their task and syscall interface
through a :class:`Runtime`, so the identical
:class:`~repro.servers.thttpd.ThttpdServer` loop runs

* **simulated** (:class:`~repro.runtime.sim.SimRuntime`) -- a thin
  adapter over the existing :class:`~repro.kernel.kernel.Kernel` /
  :mod:`repro.sim` machinery, preserving charge sequences byte-for-byte;
* **live** (:class:`~repro.runtime.live.LiveRuntime`) -- real
  nonblocking localhost sockets on the host OS, with wall-clock time in
  place of simulated time and measured per-syscall wall time in place
  of modeled charges.

A runtime answers for exactly the things a server needs from "an
operating system":

=================  =====================================================
``mode``           ``"sim"`` or ``"live"``
``kernel``         the kernel facade (clock, cost model, counters,
                   tracer/causal hooks, CPU accounting)
``now()``          current time on the runtime's clock, seconds
``new_task()``     fd-limit-bounded task (process) bookkeeping
``make_sys()``     the syscall interface bound to one task -- socket
                   ops, fd lifecycle, readiness-wait primitives
``start_server()`` run a server's ``run()`` generator on the substrate
``stop_server()``  ask the loop to exit and wait for it
``default_backend()``  the canonical event-backend name for this
                   substrate when the caller did not pin one
=================  =====================================================

Both implementations keep the generator calling convention
(``yield from sys.read(...)``): the simulated interface suspends on
kernel wait queues, while the live interface performs the real
(nonblocking) operation and returns without ever yielding -- so one
server loop drives both without a single branch.
"""

from __future__ import annotations

from typing import Dict, Type

#: registry keys double as the ``--runtime`` CLI axis
SIM = "sim"
LIVE = "live"


class Runtime:
    """Base class for execution substrates (see module docstring)."""

    #: registry key; also the ``runtime`` field of point records
    mode: str = "base"

    #: the kernel facade servers read (``costs``, ``sim.now``,
    #: ``counters``, ``tracer``, ``causal``, ``cpu``); set by subclasses
    kernel = None

    # -- clock ---------------------------------------------------------
    def now(self) -> float:
        """Seconds on this runtime's clock (simulated or monotonic)."""
        return self.kernel.sim.now

    # -- task + syscall-interface construction -------------------------
    def new_task(self, name: str, fd_limit: int = 1024, rtsig_max=None):
        """A task (fd table + limits) for one server process."""
        raise NotImplementedError

    def make_sys(self, task):
        """The syscall interface bound to ``task``."""
        raise NotImplementedError

    # -- server lifecycle ----------------------------------------------
    def start_server(self, server):
        """Run ``server.run()`` on this substrate; returns a handle."""
        raise NotImplementedError

    def stop_server(self, server) -> None:
        """Ask the server loop to exit and wait for it to finish."""
        server.stop()

    # -- capabilities --------------------------------------------------
    def default_backend(self) -> str:
        """Event-backend name to use when the caller did not pin one."""
        raise NotImplementedError

    def supports_backend(self, name: str) -> bool:
        """Whether an event backend can run on this substrate."""
        raise NotImplementedError


#: mode -> Runtime subclass, for each implementation module imported so far
RUNTIMES: Dict[str, Type[Runtime]] = {}


def register_runtime(cls: Type[Runtime]) -> Type[Runtime]:
    """Class decorator adding a runtime to :data:`RUNTIMES` by mode."""
    RUNTIMES[cls.mode] = cls
    return cls


def ensure_runtime(kernel_or_runtime) -> Runtime:
    """Wrap a bare :class:`~repro.kernel.kernel.Kernel` in a
    :class:`~repro.runtime.sim.SimRuntime`; pass runtimes through.

    This is what lets every existing ``Server(kernel, ...)`` call site
    keep working unchanged while new code passes a runtime.
    """
    if isinstance(kernel_or_runtime, Runtime):
        return kernel_or_runtime
    from .sim import SimRuntime

    return SimRuntime(kernel_or_runtime)
