"""The SMP domain: N CPUs behind the single-CPU ``kernel.cpu`` facade.

Everything in the reproduction charges time through ``kernel.cpu``.  On
a uniprocessor kernel that is a plain :class:`~repro.sim.resources.CPU`;
with ``num_cpus > 1`` it becomes a :class:`MultiCPU` facade that routes
each grant to one of the domain's per-CPU run queues:

* ``PRIO_SOFTIRQ`` work always lands on CPU 0.  2.2-era Linux steered
  all network interrupts (and thus all softirq protocol processing) to
  one processor, which is the first scaling ceiling every backend hits.
* ``PRIO_USER`` work is routed by the :class:`Scheduler` according to
  the process currently executing, so each prefork worker's syscalls
  run -- and are accounted -- on its own CPU.

The domain also owns the shared-structure contention models: the big
kernel lock (``bkl``) that serializes every backend's readiness scan
(entered through :meth:`SmpDomain.bkl_part`, a lock-wait part of the
scan's fused grant), and the single backmap rwlock the paper flags as
the SMP bottleneck.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim.resources import CPU, PRIO_SOFTIRQ, PRIO_USER
from .contention import RwContention, SpinContention
from .scheduler import Scheduler


class SmpDomain:
    """Owns the per-CPU run queues, scheduler, and contention models."""

    def __init__(self, kernel, num_cpus: int, cpu_speed: float = 1.0):
        if num_cpus < 2:
            raise ValueError("SmpDomain needs at least 2 CPUs; "
                             "uniprocessor kernels use a plain CPU")
        self.kernel = kernel
        self.num_cpus = num_cpus
        self.cpus = []
        for i in range(num_cpus):
            cpu = CPU(kernel.sim, name=f"{kernel.name}.cpu{i}",
                      speed=cpu_speed)
            cpu.index = i
            self.cpus.append(cpu)
        self.scheduler = Scheduler(self.cpus)
        self.bkl = SpinContention("bkl")
        self.backmap_rwlock = RwContention("backmap")
        self.multi = MultiCPU(self)

    # ------------------------------------------------------------------
    def current_cpu_index(self) -> int:
        """CPU of the currently-executing process (0 outside process
        context -- softirq/callback work runs on CPU 0)."""
        proc = self.kernel.sim.current_process
        if proc is None:
            return 0
        return self.scheduler.cpu_index_for(proc)

    # ------------------------------------------------------------------
    # shared-structure contention entry points
    # ------------------------------------------------------------------
    def bkl_part(self, hold_work: float):
        """A lazy fused part (see :meth:`CPU.consume_parts
        <repro.sim.resources.CPU.consume_parts>`) that serializes a
        kernel-side scan of ``hold_work`` seconds (of baseline CPU work)
        under the big kernel lock.

        The part is evaluated by the member CPU running the grant, at
        the boundary just before the scan: it takes the lock there and
        spins for any wait as ``smp.bkl_wait``, ahead of the scan part.
        The CPU comes from the grant, not from
        :meth:`current_cpu_index` -- at a part boundary no process is
        running, which would answer CPU 0.
        """
        bkl = self.bkl
        sim = self.kernel.sim

        def spin(cpu) -> float:
            speed = cpu.speed
            # the wait is wall time a spinning CPU burns as-is; scale it
            # back up so the part's speed division cancels out
            return bkl.acquire(sim.now, hold_work / speed, cpu.index) * speed

        return ("smp.bkl_wait", spin, None)

    def backmap_read(self) -> float:
        """A wakeup hint takes the backmap rwlock for reading.

        Hints run in softirq context, so the hold and any wait land on
        CPU 0 at softirq priority (``smp.rwlock_wait_rd``).
        """
        costs = self.kernel.costs
        cpu = self.cpus[0]
        hold = (costs.backmap_lock_acquire + costs.backmap_mark_hint
                ) / cpu.speed
        wait = self.backmap_rwlock.read_acquire(self.kernel.sim.now, hold, 0)
        if wait > 0:
            cpu.consume(wait * cpu.speed, PRIO_SOFTIRQ, "smp.rwlock_wait_rd",
                        nowait=True)
        return wait

    def backmap_write(self) -> float:
        """Interest registration/removal takes the rwlock for writing.

        Runs in process context (epoll_ctl, /dev/poll writes) on the
        calling worker's CPU; the wait surfaces as
        ``smp.rwlock_wait_wr`` -- the cross-CPU term the paper predicts
        will bend the scaling curve.
        """
        costs = self.kernel.costs
        idx = self.current_cpu_index()
        cpu = self.cpus[idx]
        hold = costs.backmap_write_hold / cpu.speed
        wait = self.backmap_rwlock.write_acquire(self.kernel.sim.now, hold,
                                                 idx)
        if wait > 0:
            cpu.consume(wait * cpu.speed, PRIO_USER, "smp.rwlock_wait_wr",
                        nowait=True)
        return wait


class MultiCPU:
    """Drop-in for ``kernel.cpu`` that fans grants out across a domain.

    Aggregate accounting (``busy_time``, ``busy_by_category``,
    ``utilization``) sums over the member CPUs so existing harness and
    calibration code reads sensible machine-wide numbers.  ``capacity``
    exposes the CPU count; the harness divides utilization by it.
    """

    def __init__(self, domain: SmpDomain):
        self.domain = domain
        self.sim = domain.kernel.sim
        self.name = f"{domain.kernel.name}.cpu"
        self.speed = domain.cpus[0].speed
        #: number of CPUs behind the facade (plain CPU lacks this attr;
        #: callers use ``getattr(cpu, "capacity", 1)``)
        self.capacity = domain.num_cpus
        self._created_at = self.sim.now

    # ------------------------------------------------------------------
    def consume(self, duration: float, priority: int = PRIO_USER,
                category: str = "other",
                breakdown: Optional[Tuple[Tuple[str, float], ...]] = None,
                nowait: bool = False):
        d = self.domain
        if priority == PRIO_SOFTIRQ:
            return d.cpus[0].consume(duration, priority, category, breakdown,
                                     nowait=nowait)
        proc = d.kernel.sim.current_process
        if proc is None:
            return d.cpus[0].consume(duration, priority, category, breakdown,
                                     nowait=nowait)
        idx, migrated = d.scheduler.route(proc)
        cpu = d.cpus[idx]
        if migrated:
            cost = d.kernel.costs.smp_migration_cost
            if cost > 0:
                cpu.consume(cost, priority, "smp.migration", nowait=True)
        return cpu.consume(duration, priority, category, breakdown,
                           nowait=nowait)

    def consume_parts(self, parts, priority: int = PRIO_USER,
                      stamps: Optional[list] = None, nowait: bool = False):
        """Fused-charge mirror of :meth:`CPU.consume_parts`.

        All parts of one fused grant land on the same member CPU,
        routed exactly as :meth:`consume` routes a single grant, and
        lazy parts are evaluated with that CPU.  A process changes CPU
        only when it is pinned, so charging its parts one by one would
        have routed every one of them there too.
        """
        d = self.domain
        if priority == PRIO_SOFTIRQ:
            return d.cpus[0].consume_parts(parts, priority, stamps=stamps,
                                           nowait=nowait)
        proc = d.kernel.sim.current_process
        if proc is None:
            return d.cpus[0].consume_parts(parts, priority, stamps=stamps,
                                           nowait=nowait)
        idx, migrated = d.scheduler.route(proc)
        cpu = d.cpus[idx]
        if migrated:
            cost = d.kernel.costs.smp_migration_cost
            if cost > 0:
                cpu.consume(cost, priority, "smp.migration", nowait=True)
        return cpu.consume_parts(parts, priority, stamps=stamps,
                                 nowait=nowait)

    def run(self, duration: float, priority: int = PRIO_USER,
            category: str = "other"):
        """Generator sugar matching :meth:`CPU.run`."""
        yield self.consume(duration, priority, category)

    # ------------------------------------------------------------------
    # aggregate accounting
    # ------------------------------------------------------------------
    @property
    def busy_time(self) -> float:
        return sum(cpu.busy_time for cpu in self.domain.cpus)

    @property
    def busy_by_category(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for cpu in self.domain.cpus:
            for category, seconds in cpu.busy_by_category.items():
                merged[category] = merged.get(category, 0.0) + seconds
        return merged

    @property
    def queued(self) -> int:
        return sum(cpu.queued for cpu in self.domain.cpus)

    def utilization(self, since: Optional[float] = None) -> float:
        """Machine-wide utilization: busy time over ``N * elapsed``."""
        start = self._created_at if since is None else since
        elapsed = self.sim.now - start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.capacity))

    # ------------------------------------------------------------------
    @property
    def profiler(self):
        return self.domain.cpus[0].profiler

    @profiler.setter
    def profiler(self, value) -> None:
        for cpu in self.domain.cpus:
            cpu.profiler = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MultiCPU {self.name!r} x{self.capacity} "
                f"queued={self.queued}>")
