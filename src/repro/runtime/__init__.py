"""Execution substrates: the simulated kernel or the real host OS."""

from importlib import import_module

#: exported name -> the submodule that defines it; a simulated point
#: never imports the live runtime
_EXPORTS = {
    "LIVE": "base", "RUNTIMES": "base", "SIM": "base", "Runtime": "base",
    "ensure_runtime": "base", "register_runtime": "base",
    "LiveKernel": "live", "LiveRuntime": "live",
    "LiveSyscallInterface": "live", "SimRuntime": "sim",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import *name* from its submodule on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
