"""The two-host benchmark testbed (section 5 of the paper).

"Our test harness consists of two machines running Linux connected via a
100 Mbit/s Ethernet switch."  The server host is deliberately small (one
400 MHz AMD K6-2, modelled as ``cpu_speed=0.4``) "so that we can easily
drive the server into overload"; the client is a four-way 500 MHz Xeon
(modelled with enough CPU that it is never the bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..kernel.costs import CLIENT_CPU_SPEED, DEFAULT_COSTS, SERVER_CPU_SPEED, CostModel
from ..kernel.kernel import Kernel
from ..net.link import ETHERNET_100MBIT, LAN_LATENCY, Network
from ..net.stack import NetStack
from ..obs.causal import CausalLedger
from ..obs.profiler import CpuProfiler
from ..obs.spans import SpanTracer
from ..sim.engine import Simulator
from ..sim.rng import RngStreams

SERVER_HOST = "server"
CLIENT_HOST = "client"
SERVER_PORT = 80


@dataclass
class TestbedConfig:
    """Hardware-equivalent parameters of the two-host testbed."""

    __test__ = False  # not a pytest test class, despite the name

    seed: int = 0
    server_cpu_speed: float = SERVER_CPU_SPEED
    client_cpu_speed: float = CLIENT_CPU_SPEED
    #: simulated CPUs in the *server* host (the client stays an
    #: unconstrained single CPU); >1 builds an SMP domain (repro.smp)
    server_cpus: int = 1
    bandwidth_bps: float = ETHERNET_100MBIT
    latency: float = LAN_LATENCY
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    trace: bool = False
    #: attribute every charged server-CPU microsecond to a
    #: (subsystem, operation) pair -- the server host only, since its CPU
    #: is what the paper measures
    profile: bool = False


class Testbed:
    """One simulator, two kernels, one switch."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, config: Optional[TestbedConfig] = None):
        self.config = config if config is not None else TestbedConfig()
        cfg = self.config
        self.sim = Simulator()
        self.rng = RngStreams(cfg.seed)
        self.tracer = SpanTracer(enabled=cfg.trace)
        self.profiler = CpuProfiler() if cfg.profile else None
        #: event-causality ledger, server host only (the paper's
        #: pathology story is about the server's readiness path)
        self.causal = CausalLedger(enabled=cfg.trace)
        self.network = Network(self.sim, cfg.bandwidth_bps, cfg.latency)
        self.server_kernel = Kernel(
            self.sim, SERVER_HOST, cpu_speed=cfg.server_cpu_speed,
            costs=cfg.costs, tracer=self.tracer, profiler=self.profiler,
            num_cpus=cfg.server_cpus, causal=self.causal)
        self.client_kernel = Kernel(
            self.sim, CLIENT_HOST, cpu_speed=cfg.client_cpu_speed,
            costs=cfg.costs, tracer=self.tracer)
        self.server_stack = NetStack(self.server_kernel, self.network)
        self.client_stack = NetStack(self.client_kernel, self.network)

    @property
    def server_addr(self):
        """(host, port) the web server listens on."""
        return (SERVER_HOST, SERVER_PORT)

    def run(self, until: float) -> None:
        """Advance simulated time to ``until``."""
        self.sim.run(until=until)

    def drain_time_wait(self) -> float:
        """Advance the clock until every socket has left TIME-WAIT --
        the between-runs discipline from section 5.  Returns the time
        spent draining."""
        start = self.sim.now
        while (self.server_stack.time_wait_count > 0
               or self.client_stack.time_wait_count > 0):
            self.sim.run(until=self.sim.now + 1.0)
        return self.sim.now - start

    def server_cpu_utilization(self, since: float = 0.0) -> float:
        """Busy fraction of the server CPU since ``since``."""
        return self.server_kernel.cpu.utilization(since=since)
