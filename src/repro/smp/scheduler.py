"""Process-to-CPU placement for the SMP domain.

Placement is **sticky round-robin**: a process is assigned a CPU the
first time it runs and stays there, mirroring the soft affinity of the
era's schedulers (goodness() preferred the last CPU).  Explicit pins
(the worker pool pins each prefork worker to ``i % num_cpus``) override
stickiness, and they are the only way a process changes CPU -- so every
grant a process issues between two pins lands on the same CPU.

Migrations -- any grant landing on a different CPU than the process's
previous one -- are counted and charged by the caller
(:class:`~repro.smp.multicpu.MultiCPU`) as ``smp.migration`` time on the
target CPU, modelling the cache refill the paper's contemporaries
measured when connections bounce between processors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Scheduler:
    """Routes simulated processes onto a fixed set of CPUs."""

    def __init__(self, cpus: List):
        self.cpus = cpus
        self._pinned: Dict[object, int] = {}
        self._last: Dict[object, int] = {}
        self._next_rr = 0
        self.assignments = 0
        self.migrations = 0

    # ------------------------------------------------------------------
    def pin(self, process, cpu_index: int) -> None:
        """Hard-affine ``process`` to one CPU; overrides stickiness."""
        if not 0 <= cpu_index < len(self.cpus):
            raise ValueError(
                f"cpu index {cpu_index} out of range 0..{len(self.cpus) - 1}")
        self._pinned[process] = cpu_index

    def cpu_index_for(self, process) -> int:
        """Where ``process`` would run right now (no migration tracking)."""
        pinned = self._pinned.get(process)
        if pinned is not None:
            return pinned
        last = self._last.get(process)
        if last is not None:
            return last
        return self._place(process)

    def route(self, process) -> Tuple[int, bool]:
        """Pick the CPU for this grant; returns ``(index, migrated)``.

        ``migrated`` is True when the process last ran on a different
        CPU -- the caller charges the migration cost term.
        """
        last = self._last.get(process)
        pinned = self._pinned.get(process)
        if pinned is not None:
            target = pinned
        elif last is not None:
            target = last
        else:
            target = self._place(process)
        migrated = last is not None and last != target
        if migrated:
            self.migrations += 1
        self._last[process] = target
        return target, migrated

    # ------------------------------------------------------------------
    def _place(self, process) -> int:
        """First-touch assignment: plain round-robin over the CPUs."""
        target = self._next_rr % len(self.cpus)
        self._next_rr += 1
        self.assignments += 1
        self._last[process] = target
        return target

    @property
    def pins(self) -> Dict[object, int]:
        return dict(self._pinned)

    def last_cpu(self, process) -> Optional[int]:
        return self._last.get(process)
