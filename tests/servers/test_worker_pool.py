"""Prefork worker pools: the shared scoreboard, pinning, and end-to-end
accept sharding through the benchmark harness."""

import pytest

from repro.bench.harness import BenchmarkPoint, run_point
from repro.net.tcp import ReusePortGroup
from repro.servers.pool import WorkerPool
from repro.servers.thttpd import ThttpdServer


def test_pool_needs_at_least_one_worker(kernel):
    with pytest.raises(ValueError):
        WorkerPool(kernel, workers=0)


def test_prefork_start_needs_a_factory(kernel):
    with pytest.raises(ValueError):
        WorkerPool(kernel, workers=2).start()


def test_adopt_shares_the_scoreboard(hosts):
    pool = WorkerPool(hosts.server, workers=2)
    a = ThttpdServer(hosts.server, None)
    b = ThttpdServer(hosts.server, None)
    pool.adopt(a)
    pool.adopt(b)
    assert a.stats is pool.stats
    assert b.stats is pool.stats
    assert a.request_latency is pool.request_latency
    assert pool.workers == [a, b]


def test_inherit_fd_installs_the_same_file(hosts, sim):
    giver = ThttpdServer(hosts.server, None)
    receiver = ThttpdServer(hosts.server, None)
    giver.start()
    sim.run(until=0.5)
    listen_fd = giver.listen_fd
    new_fd = WorkerPool.inherit_fd(giver, listen_fd, receiver)
    assert receiver.task.fdtable.get(new_fd) is (
        giver.task.fdtable.get(listen_fd))
    giver.stop()


def test_prefork_pool_serves_with_sharded_accepts():
    result = run_point(BenchmarkPoint(
        server="thttpd", rate=100.0, inactive=5, duration=1.5,
        cpus=2, workers=2))
    assert isinstance(result.server, WorkerPool)
    assert len(result.server.workers) == 2
    assert result.reply_rate.avg > 0
    assert result.error_percent == 0.0
    # the port is a reuse-port group and every worker took accepts
    group = result.testbed.server_stack.get_listener(80)
    assert isinstance(group, ReusePortGroup)
    assert len(group.members) == 2
    assert all(m.syns_routed > 0 for m in group.members)
    # the shared scoreboard saw the pool's aggregate traffic
    assert result.server_stats.accepts >= 5
    assert result.server_stats.responses > 0
    # workers were pinned round-robin onto the two CPUs
    pins = result.testbed.server_kernel.smp.scheduler.pins
    assert sorted(pins.values()) == [0, 1]


def test_round_robin_dispatch_spreads_exactly():
    result = run_point(BenchmarkPoint(
        server="thttpd", rate=100.0, inactive=4, duration=1.0,
        cpus=2, workers=2, dispatch="round-robin"))
    group = result.testbed.server_stack.get_listener(80)
    routed = sorted(m.syns_routed for m in group.members)
    assert routed[1] - routed[0] <= 1  # strict alternation


def test_phhttpd_poll_sibling_records_into_the_pool_scoreboard():
    """One prefork phhttpd worker overflows its RT-signal queue and hands
    its connections to its poll sibling; the sibling's responses and
    service times land on the pool's scoreboard with the workers'."""
    result = run_point(BenchmarkPoint(
        server="phhttpd", rate=1600.0, inactive=256, duration=0.5,
        cpus=2, workers=2, dispatch="round-robin",
        server_opts={"rtsig_max": 8}))
    workers = result.server.workers
    assert any(w.sibling.took_over for w in workers)
    replies = result.httperf.replies_ok
    assert replies > 0
    assert result.server_stats.responses == replies
    assert result.server.request_latency.count == replies
