"""Benchmark harness: testbed, httperf client, sweeps, paper figures.

Each exported name is imported from its submodule on first access
(PEP 562), so a caller loads only the tools it names: a simulated point
never compiles the capacity, calibrate, figure or suite modules.
"""

from importlib import import_module

#: exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CALIBRATION_VERSION", "default_calibration_path", "dump_calibration",
        "load_calibration", "run_calibration"), "calibrate"),
    **dict.fromkeys((
        "CAPACITY_ARTIFACT_VERSION", "CapacitySearch", "CellSpec",
        "default_artifact_path", "dump_capacity_artifact",
        "load_capacity_artifact", "matrix_cells", "matrix_fingerprint",
        "parse_smp", "run_capacity_matrix"), "capacity"),
    **dict.fromkeys(("ALL_FIGURES", "FigureResult"), "figures"),
    **dict.fromkeys((
        "BACKEND_TO_KIND", "SERVER_KINDS", "BenchmarkPoint", "PointResult",
        "make_server", "run_point"), "harness"),
    **dict.fromkeys((
        "LIVE_BACKENDS", "LivePointResult", "default_live_backend",
        "run_live_point"), "live"),
    **dict.fromkeys(("HttperfClient", "HttperfConfig", "HttperfResult"),
                    "httperf"),
    **dict.fromkeys(("InactiveConnectionPool", "InactivePoolConfig"),
                    "inactive"),
    **dict.fromkeys((
        "PointOutcome", "PointPayload", "PortablePointResult",
        "failed_point_result", "run_points"), "parallel"),
    **dict.fromkeys((
        "RECORD_VERSION", "WALL_CLOCK_FIELDS", "dump_figure_record",
        "figure_record", "load_figure_record", "point_record",
        "sweep_record"), "records"),
    **dict.fromkeys((
        "SelfPerfResult", "run_engine_churn", "run_point_workload",
        "run_selfperf"), "selfperf"),
    **dict.fromkeys((
        "ascii_histogram", "ascii_plot", "cpu_breakdown", "format_table",
        "per_request_cost_us", "reply_rate_table"), "reporting"),
    **dict.fromkeys((
        "ARTIFACT_VERSION", "SUITES", "BenchSuite", "dump_artifact",
        "load_artifact", "point_label", "run_suite", "suite_fingerprint"),
        "suites"),
    **dict.fromkeys((
        "PAPER_LOADS", "PAPER_RATES", "QUICK_RATES", "SweepResult",
        "run_rate_sweep"), "sweeps"),
    **dict.fromkeys((
        "CLIENT_HOST", "SERVER_HOST", "SERVER_PORT", "Testbed",
        "TestbedConfig"), "testbed"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Import *name* from its submodule on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
