"""``SimRuntime``: the simulated-kernel substrate.

A deliberately thin adapter: every method forwards to the pre-existing
:class:`~repro.kernel.kernel.Kernel` / :mod:`repro.sim` machinery with
the same arguments in the same order, so the charge sequences -- and
therefore every benchmark record -- are byte-identical to servers that
constructed their :class:`~repro.kernel.task.Task` and
:class:`~repro.kernel.syscalls.SyscallInterface` directly
(``tests/runtime/test_sim_equivalence.py`` pins this against the
checked-in smoke baseline).
"""

from __future__ import annotations

from typing import Optional

from ..kernel.syscalls import SyscallInterface
from ..sim.process import spawn
from .base import Runtime


class SimRuntime(Runtime):
    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def new_task(self, name: str, fd_limit: int = 1024,
                 rtsig_max: Optional[int] = None):
        return self.kernel.new_task(name, fd_limit=fd_limit,
                                    rtsig_max=rtsig_max)

    def make_sys(self, task) -> SyscallInterface:
        return SyscallInterface(task)

    def start_server(self, server):
        return spawn(self.kernel.sim, server.run(), name=server.name)
