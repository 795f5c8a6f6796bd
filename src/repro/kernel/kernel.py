"""Per-host kernel instance.

A :class:`Kernel` ties together one host's CPU, cost model, tasks, signal
delivery, and (once :mod:`repro.net` attaches one) network stack.  The
benchmark testbed builds two of these -- the small uniprocessor web server
and the four-way client driver -- connected by a simulated Ethernet link.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..obs.causal import NULL_LEDGER, CausalLedger
from ..obs.metrics import MetricsRegistry
from ..obs.profiler import CpuProfiler
from ..obs.spans import NULL_TRACER, Span, SpanTracer
from ..sim.engine import Simulator
from ..sim.resources import CPU, PRIO_SOFTIRQ
from .constants import RTSIG_MAX_DEFAULT
from .costs import DEFAULT_COSTS, CostModel
from .fused import FusedCostTable
from .signals import SignalSubsystem
from .task import Task

if TYPE_CHECKING:  # pragma: no cover
    from ..net.stack import NetStack


class Kernel:
    def __init__(
        self,
        sim: Simulator,
        name: str = "host",
        cpu_speed: float = 1.0,
        costs: CostModel = DEFAULT_COSTS,
        tracer: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[CpuProfiler] = None,
        num_cpus: int = 1,
        causal: Optional[CausalLedger] = None,
    ):
        self.sim = sim
        self.name = name
        self.costs = costs
        #: precomputed fused-charge part tables (built once per kernel)
        self.fused = FusedCostTable(costs)
        if num_cpus > 1:
            # local import: repro.smp builds on sim.resources and reads
            # kernel.costs, so the dependency must point this way
            from ..smp import SmpDomain

            self.smp: Optional["SmpDomain"] = SmpDomain(
                self, num_cpus, cpu_speed=cpu_speed)
            self.cpu = self.smp.multi
            self.cpus = self.smp.cpus
        else:
            self.smp = None
            self.cpu = CPU(sim, name=f"{name}.cpu", speed=cpu_speed)
            self.cpus = [self.cpu]
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: event-causality ledger (repro.obs.causal); disabled by default
        self.causal = causal if causal is not None else NULL_LEDGER
        #: one registry per host; every kernel/net/server count lives here
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: count name -> value (the registry's ``counts``)
        self.counters = self.metrics.counts
        #: simulated-CPU profiler (repro.obs.profiler); None = off
        self.profiler = profiler
        if profiler is not None:
            self.cpu.profiler = profiler
        self.signals = SignalSubsystem(self)
        self._pid = 0
        #: attached by repro.net.stack.NetStack.__init__
        self.net: Optional["NetStack"] = None

    # ------------------------------------------------------------------
    @property
    def num_cpus(self) -> int:
        return len(self.cpus)

    def pin(self, process, cpu_index: int) -> None:
        """Hard-affine a simulated process to one CPU.

        No-op on uniprocessor kernels, so callers (the worker pool) can
        pin unconditionally.
        """
        if self.smp is not None:
            self.smp.scheduler.pin(process, cpu_index)

    # ------------------------------------------------------------------
    def next_pid(self) -> int:
        self._pid += 1
        return self._pid

    def new_task(self, name: str, fd_limit: int = 1024,
                 rtsig_max: Optional[int] = None) -> Task:
        return Task(
            self, name, fd_limit=fd_limit,
            rtsig_max=RTSIG_MAX_DEFAULT if rtsig_max is None else rtsig_max,
        )

    # ------------------------------------------------------------------
    def under_bkl(self, part) -> tuple:
        """A kernel-side readiness scan ``part`` as fused-grant parts.

        2.2 ran every backend's scan under the big kernel lock, so on an
        SMP kernel a lock-wait part for the scan's own length goes
        first; a uniprocessor never contends and gets the scan alone.
        """
        if self.smp is None:
            return (part,)
        return (self.smp.bkl_part(part[1]), part)

    def charge_softirq(self, seconds: float, category: str = "softirq") -> None:
        """Fire-and-forget CPU charge for interrupt/softirq-context work.

        Nothing waits on the grant; the time simply occupies the CPU ahead
        of user work, which is exactly how interrupt load starves a busy
        server (the paper's "bursty and unpredictable interrupt load").
        """
        if seconds > 0:
            self.cpu.consume(seconds, PRIO_SOFTIRQ, category, nowait=True)

    def trace(self, subsystem: str, message: str) -> None:
        self.tracer.trace(self.sim.now, subsystem, message)

    def span(self, subsystem: str, name: str, **attrs) -> Optional[Span]:
        """Open a tracing span at the current simulated time.

        The span is tracked to the simulated process currently running,
        so nesting depths from concurrent processes stay independent.
        On an SMP kernel the track is the ``(process, cpu)`` pair and the
        span records the CPU executing it, so per-CPU attribution
        survives into trace exports and flamegraphs.
        """
        proc = self.sim.current_process
        if self.smp is None:
            return self.tracer.begin(self.sim.now, subsystem, name,
                                     track=proc, **attrs)
        cpu_index = self.smp.current_cpu_index()
        return self.tracer.begin(self.sim.now, subsystem, name,
                                 track=(proc, cpu_index), cpu=cpu_index,
                                 **attrs)

    def span_end(self, span: Optional[Span], **attrs) -> None:
        """Close a span opened with :meth:`span` (no-op when disabled)."""
        self.tracer.end(self.sim.now, span, **attrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name!r}>"
