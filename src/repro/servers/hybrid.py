"""The hybrid server the paper imagines but could not build (sections 4/6).

"Imagine a hybrid server that can switch between polling and processing
incoming requests via RT signals" -- using the RT-signal-queue maximum as
the crossover trigger, and keeping the kernel interest set current while
it runs on signals, so the crossover costs "very little overhead".

The server is the shared event loop on the ``hybrid`` backend
(:class:`repro.events.hybrid_backend.HybridBackend`), which owns both
mechanisms and the mode switch: a ``SIGIO`` overflow moves it to
``/dev/poll``, and ``calm_loops`` quiet ``DP_POLL``s move it back to
signals -- the switch-back phhttpd never implemented.  This module holds
the configuration and views over the backend's state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.devpoll import DevPollConfig
from .base import BaseServer, ServerConfig


@dataclass
class HybridConfig(ServerConfig):
    #: batch size for sigtimedwait4 (section 6: dequeue in groups)
    signal_batch: int = 8
    #: "calm" threshold: DP_POLL ready count at or below this ...
    low_water_ready: int = 2
    #: ... for this many consecutive loops switches back to signal mode
    calm_loops: int = 50
    use_mmap: bool = True
    result_capacity: int = 1024
    devpoll: DevPollConfig = field(default_factory=DevPollConfig)
    avoid_linuxthreads: bool = True


class HybridServer(BaseServer):
    name = "hybrid"
    backend_name = "hybrid"

    def __init__(self, kernel, site=None, config: Optional[HybridConfig] = None):
        super().__init__(kernel, site,
                         config if config is not None else HybridConfig())

    # -- views over the backend's state ---------------------------------

    @property
    def mode(self) -> str:
        """``"signals"`` or ``"polling"``."""
        return self.backend.mode

    @property
    def mode_switches(self) -> List[Tuple[float, str]]:
        """(time, new_mode) history, starting with the initial mode."""
        return self.backend.mode_switches

    @property
    def dp_fd(self) -> int:
        return self.backend.devpoll.dp_fd
