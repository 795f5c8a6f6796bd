"""Host time by layer: cProfile statistics folded into ``repro`` packages.

A layer is one package under ``src/repro/`` (``repro.sim``, ``repro.net``,
...).  The benchmark profiles a run from the outside with the standard
``cProfile`` and folds the per-function table into one row per layer:

* ``self_s`` -- seconds spent in the layer's own Python code, plus the C
  builtins (``list.append``, ``heapq.heappush``, ...) it called.  cProfile
  lists each builtin once with its callers, so a builtin's time is split
  among the packages that called it rather than lumped together.
* ``calls`` -- calls into the layer from code outside it.  A call made
  by a builtin counts as coming from outside: that is how the engine
  resumes a process (``generator.send`` entering a server's loop).

Everything that is not one of :data:`LAYERS` -- the standard library, the
benchmark's own scripts, ``repro``'s top-level modules -- is ``other``.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

#: the packages of ``src/repro`` reported as layers, in stack order
LAYERS = ("sim", "net", "kernel", "core", "events", "servers", "http",
          "smp", "runtime", "bench", "obs")
OTHER = "other"

_PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")

#: cProfile's function key: (filename, first line, name); builtins use
#: the filename "~"
FuncKey = Tuple[str, int, str]


def package_of(func: FuncKey) -> str:
    """The layer a profiled function belongs to (``other`` if none)."""
    match = _PACKAGE.search(func[0])
    if match is not None and match.group(1) in LAYERS:
        return match.group(1)
    return OTHER


def is_builtin(func: FuncKey) -> bool:
    return func[0] == "~"


def fold(stats: Dict[FuncKey, tuple]) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats.Stats(...).stats`` table into per-layer totals.

    ``stats`` maps each function to ``(cc, nc, tt, ct, callers)``, and
    ``callers`` maps each calling function to ``(nc, cc, tt, ct)`` -- the
    calls and self time of the callee made from that caller.
    """
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS + (OTHER,)}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if is_builtin(func):
            charged = 0.0
            for caller, (_cnc, _ccc, caller_tt, _cct) in callers.items():
                out[package_of(caller)]["self_s"] += caller_tt
                charged += caller_tt
            # time with no recorded caller (the profiler's own start)
            out[OTHER]["self_s"] += max(0.0, tt - charged)
            continue
        layer = package_of(func)
        out[layer]["self_s"] += tt
        for caller, (caller_nc, _ccc, _ctt, _cct) in callers.items():
            if package_of(caller) != layer:
                out[layer]["calls"] += caller_nc
    return out
