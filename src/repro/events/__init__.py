"""Unified event-notification backends.

The paper's whole argument is a comparison of readiness-notification
mechanisms; this package gives each mechanism one face.  An
:class:`~repro.events.base.EventBackend` owns "declare interest in fd /
wait for readiness" on behalf of a server, so the server loop is written
once and the mechanism is a constructor argument.  Six are simulated:
``poll()``, ``select()``, ``/dev/poll``, RT signals, ``epoll``, and the
section-6 hybrid that runs on RT signals and falls back to its
``/dev/poll`` interest set when the signal queue overflows.

Backends are registered by name in :data:`~repro.events.base.BACKENDS`
and instantiated with :func:`~repro.events.base.make_backend`.
"""

from .base import BACKENDS, EventBackend, BackendStats, make_backend
from .poll_backend import PollBackend
from .select_backend import SelectBackend
from .devpoll_backend import DevpollBackend
from .rtsig_backend import RTSIG_OVERFLOW, RtsigBackend
from .epoll_backend import EpollBackend
from .hybrid_backend import HybridBackend
from .live_backend import LiveEpollBackend, LiveSelectBackend

__all__ = [
    "BACKENDS",
    "EventBackend",
    "BackendStats",
    "make_backend",
    "PollBackend",
    "SelectBackend",
    "DevpollBackend",
    "RtsigBackend",
    "RTSIG_OVERFLOW",
    "EpollBackend",
    "HybridBackend",
    "LiveEpollBackend",
    "LiveSelectBackend",
]
