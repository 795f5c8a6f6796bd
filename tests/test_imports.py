"""The import graph: each caller loads only the modules it uses.

Every check runs in a fresh interpreter, so modules this test process
has already imported cannot hide an import.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: harness tooling no single point runs
TOOLING = {f"repro.bench.{name}" for name in (
    "calibrate", "capacity", "diffing", "figures", "live",
    "parallel", "reporting", "selfperf", "suites", "sweeps")}
#: renderers and samplers only reports and traced capacity cells use
RENDERERS = {"repro.obs.report", "repro.obs.flame", "repro.obs.timeline"}

LAZY_PACKAGES = ("repro.bench", "repro.obs", "repro.runtime", "repro.servers")


def run_fresh(code):
    """Run *code* in a new interpreter; returns its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(code):
    """The ``repro`` modules loaded once *code* has run."""
    return set(json.loads(run_fresh(
        code + "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')]))")))


def test_live_point_loads_no_harness_module():
    loaded = loaded_after("import repro.servers.thttpd, repro.runtime.live, "
                          "repro.obs.causal")
    assert not {m for m in loaded if m.startswith("repro.bench")}
    assert not loaded & RENDERERS


def test_simulated_point_loads_no_tooling_or_live_runtime():
    loaded = loaded_after(
        "from repro.bench import (HttperfClient, HttperfConfig, "
        "InactiveConnectionPool, InactivePoolConfig, PointResult, Testbed, "
        "TestbedConfig, make_server, point_record)")
    assert not loaded & (TOOLING | RENDERERS | {"repro.runtime.live"})
    assert {"repro.bench.harness", "repro.bench.testbed"} <= loaded


def test_cli_help_loads_no_subpackage():
    loaded = loaded_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code")
    assert loaded <= {"repro", "repro.__main__"}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_its_submodules_object(package):
    """Each name in ``__all__`` resolves, on first access, to the very
    object its submodule defines; other names are not attributes, so
    ``from package import submodule`` still imports the submodule."""
    checked = run_fresh(f"""
import importlib, inspect
pkg = importlib.import_module({package!r})
assert sorted(pkg.__all__) == sorted(pkg._EXPORTS)
for name in pkg.__all__:
    module = importlib.import_module(f"{{pkg.__name__}}.{{pkg._EXPORTS[name]}}")
    value = getattr(pkg, name)
    assert value is getattr(module, name), name
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__, name
assert not hasattr(pkg, "no_such_export")
print(len(pkg.__all__))
""")
    assert int(checked) > 0


def test_submodules_stay_importable_from_their_package():
    assert run_fresh("from repro.bench import diffing, harness\n"
                     "from repro import bench, events, obs\n"
                     "print(harness.run_point is bench.run_point)") == "True"
