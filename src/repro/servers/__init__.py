"""The paper's web servers: thttpd (poll, select, /dev/poll, epoll),
phhttpd (RT signals), and the section-6 hybrid, all on one event loop
(:meth:`BaseServer.event_loop`) over an event backend.

Each exported name is imported from its submodule on first access
(PEP 562), so a caller loads only the servers it names.
"""

from importlib import import_module

#: exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "READING", "WRITING", "BaseServer", "Connection", "ServerConfig",
        "ServerStats"), "base"),
    **dict.fromkeys(("HybridConfig", "HybridServer"), "hybrid"),
    **dict.fromkeys(("PhhttpdConfig", "PhhttpdServer"), "phhttpd"),
    **dict.fromkeys((
        "DevpollServerConfig", "EpollServerConfig", "ThttpdDevpollServer",
        "ThttpdEpollServer", "ThttpdSelectServer", "ThttpdServer"),
        "thttpd"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import *name* from its submodule on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
