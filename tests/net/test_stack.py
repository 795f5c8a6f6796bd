"""NetStack tests: port pool, listener registry, CPU charge categories."""

import tracemalloc

import pytest

from repro.kernel.constants import EADDRINUSE, SyscallError
from repro.kernel.kernel import Kernel
from repro.net.link import Network
from repro.net.stack import EPHEMERAL_HIGH, EPHEMERAL_LOW, NetStack
from repro.sim.engine import SimulationError, Simulator


@pytest.fixture
def stack(sim):
    kernel = Kernel(sim, "host")
    return NetStack(kernel, Network(sim))


def test_attaches_to_kernel_and_network(sim):
    kernel = Kernel(sim, "h")
    net = Network(sim)
    stack = NetStack(kernel, net)
    assert kernel.net is stack
    assert net.stack("h") is stack


def test_port_pool_size_matches_paper_limit(stack):
    """'we can have only about 60000 open sockets at a single point'."""
    assert EPHEMERAL_HIGH - EPHEMERAL_LOW == pytest.approx(60000, abs=100)
    assert stack.ports_available == EPHEMERAL_HIGH - EPHEMERAL_LOW


def test_port_alloc_release_cycle(stack):
    before = stack.ports_available
    port = stack.alloc_ephemeral_port()
    assert EPHEMERAL_LOW <= port < EPHEMERAL_HIGH
    assert stack.ports_available == before - 1
    stack.release_port(port)
    assert stack.ports_available == before


def test_ports_come_ascending_then_in_release_order(sim):
    kernel = Kernel(sim, "h")
    network = Network(sim)
    tracemalloc.start()
    try:
        stack = NetStack(kernel, network)
        built = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built < 64 * 1024  # no object per port
    pool = EPHEMERAL_HIGH - EPHEMERAL_LOW
    first = [stack.alloc_ephemeral_port() for _ in range(3)]
    assert first == [EPHEMERAL_LOW, EPHEMERAL_LOW + 1, EPHEMERAL_LOW + 2]
    stack.release_port(first[2])
    stack.release_port(first[0])
    assert stack.ports_available == pool - 1
    rest = [stack.alloc_ephemeral_port() for _ in range(pool - 3)]
    assert rest == list(range(EPHEMERAL_LOW + 3, EPHEMERAL_HIGH))
    assert stack.ports_available == 2
    assert [stack.alloc_ephemeral_port(),
            stack.alloc_ephemeral_port()] == [first[2], first[0]]
    assert stack.ports_available == 0


def test_port_exhaustion_raises(stack):
    while stack.ports_available:
        stack.alloc_ephemeral_port()
    with pytest.raises(SyscallError) as err:
        stack.alloc_ephemeral_port()
    assert err.value.errno_code == EADDRINUSE


def test_release_ignores_well_known_ports(stack):
    before = stack.ports_available
    stack.release_port(80)  # not ephemeral; must not pollute the pool
    assert stack.ports_available == before


def test_listener_registry(stack):
    listener = stack.add_listener(80, backlog=4)
    assert stack.get_listener(80) is listener
    with pytest.raises(SyscallError):
        stack.add_listener(80, backlog=4)
    stack.remove_listener(80)
    assert stack.get_listener(80) is None


def test_charge_categories(sim, stack):
    kernel = stack.kernel
    stack.charge_tx(3)
    stack.charge_rx(2)
    stack.charge_ack_tx(1)
    stack.charge_ack_rx(1)
    sim.run()
    cats = kernel.cpu.busy_by_category
    assert cats["net.tx"] > 0
    assert cats["net.rx"] > 0
    assert cats["net.ack"] > 0
    costs = kernel.costs
    assert cats["net.tx"] == pytest.approx(
        3 * (costs.tcp_tx_packet + costs.irq_per_packet))


def test_time_wait_accounting(sim, stack):
    class FakeEndpoint:
        owns_port = True
        local_port = stack.alloc_ephemeral_port()

    stack.connection_opened()
    before_ports = stack.ports_available
    stack.connection_closed(FakeEndpoint(), time_wait=True)
    assert stack.time_wait_count == 1
    assert stack.ports_available == before_ports  # held during TIME-WAIT
    sim.run(until=stack.time_wait_seconds + 1)
    assert stack.time_wait_count == 0
    assert stack.ports_available == before_ports + 1


def test_custom_time_wait_duration(sim):
    kernel = Kernel(sim, "h2")
    stack = NetStack(kernel, Network(sim), time_wait_seconds=5.0)

    class FakeEndpoint:
        owns_port = False
        local_port = 80

    stack.connection_opened()
    stack.connection_closed(FakeEndpoint(), time_wait=True)
    sim.run(until=4.0)
    assert stack.time_wait_count == 1
    sim.run(until=6.0)
    assert stack.time_wait_count == 0


def test_negative_time_wait_period_rejected(sim):
    with pytest.raises(SimulationError):
        NetStack(Kernel(sim, "h3"), Network(sim), time_wait_seconds=-1.0)
