"""The runtime layer must be invisible to the simulation.

The refactor threaded every server through :class:`repro.runtime.Runtime`
(`BaseServer` now calls ``ensure_runtime`` on whatever it is given), so
the admissibility bar is the usual one: a simulated point's record must
be byte-identical whether the server was built the historical way (a
bare :class:`~repro.kernel.kernel.Kernel`) or through an explicit
:class:`~repro.runtime.SimRuntime` -- for *every* event backend, not
just the ones the smoke baseline happens to cover.
"""

import json

import pytest

import repro.bench.harness as harness
from repro.bench.harness import BACKEND_TO_KIND, BenchmarkPoint, run_point
from repro.bench.records import WALL_CLOCK_FIELDS, point_record
from repro.kernel.kernel import Kernel
from repro.runtime import SimRuntime, ensure_runtime
from repro.sim.engine import Simulator


def _kernel():
    return Kernel(Simulator())

#: every simulated event backend (the live ones are not equivalence
#: candidates -- they run on real sockets)
SIM_BACKENDS = ("select", "poll", "devpoll", "rtsig", "epoll", "hybrid")

NON_SIMULATED_KEYS = set(WALL_CLOCK_FIELDS) | {"sim_events"}


def _point(backend):
    return BenchmarkPoint(server=BACKEND_TO_KIND[backend], backend=backend,
                          rate=100.0, inactive=5, duration=0.5)


def _record(point):
    return json.loads(json.dumps({
        k: v for k, v in point_record(run_point(point)).items()
        if k not in NON_SIMULATED_KEYS}))


def test_ensure_runtime_wraps_bare_kernels():
    kernel = _kernel()
    runtime = ensure_runtime(kernel)
    assert isinstance(runtime, SimRuntime)
    assert runtime.kernel is kernel


def test_ensure_runtime_passes_runtimes_through():
    runtime = SimRuntime(_kernel())
    assert ensure_runtime(runtime) is runtime


@pytest.mark.parametrize("backend", SIM_BACKENDS)
def test_explicit_sim_runtime_is_byte_identical(backend, monkeypatch):
    point = _point(backend)
    baseline = _record(point)

    kind = BACKEND_TO_KIND[backend]
    factory = harness.SERVER_KINDS[kind]

    def through_runtime(kernel, site=None, *args, **kwargs):
        return factory(SimRuntime(kernel), site, *args, **kwargs)

    monkeypatch.setitem(harness.SERVER_KINDS, kind, through_runtime)
    assert _record(point) == baseline, (
        f"backend {backend}: explicit SimRuntime changed the record")
