"""Multi-CPU simulation: per-CPU run queues, scheduling, contention.

The paper's measurements end at one processor and flag the backmap
rwlock as the known SMP bottleneck.  This package models the 2.2-era
multiprocessor picture well enough to pose the scaling question: N CPUs
with private run queues behind the ``kernel.cpu`` facade, softirq work
pinned to CPU 0, a sticky-affinity scheduler with a migration cost
term, the big kernel lock serializing readiness scans, and the shared
backmap rwlock charging reader/writer wait time.

Uniprocessor kernels (``num_cpus=1``, the default everywhere) never
touch this package and keep their event streams byte-identical.
"""

from .contention import RwContention, SpinContention
from .multicpu import MultiCPU, SmpDomain
from .scheduler import Scheduler

__all__ = [
    "MultiCPU",
    "RwContention",
    "Scheduler",
    "SmpDomain",
    "SpinContention",
]
