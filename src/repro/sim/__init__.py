"""Discrete-event simulation substrate (engine, processes, CPU, stats)."""

from .engine import Event, SimulationError, Simulator, Timer
from .process import (
    AnyOf,
    Process,
    ProcessCrashed,
    sleep,
    spawn,
    wait,
    wait_any,
    wait_with_timeout,
)
from .resources import CPU, Channel, PRIO_SOFTIRQ, PRIO_USER
from .rng import RngStreams
from .stats import ErrorCounter, RateSummary, quantile, window_rates

__all__ = [
    "AnyOf",
    "CPU",
    "Channel",
    "ErrorCounter",
    "Event",
    "PRIO_SOFTIRQ",
    "PRIO_USER",
    "Process",
    "ProcessCrashed",
    "RateSummary",
    "RngStreams",
    "SimulationError",
    "Simulator",
    "Timer",
    "quantile",
    "sleep",
    "spawn",
    "wait",
    "wait_any",
    "wait_with_timeout",
    "window_rates",
]
