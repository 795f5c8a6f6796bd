"""Tests for the httperf-style load generator and its error classes."""

import pytest

from repro.bench.httperf import HttperfClient, HttperfConfig
from repro.bench.testbed import Testbed, TestbedConfig
from repro.servers.thttpd import ThttpdDevpollServer


@pytest.fixture
def testbed():
    return Testbed(TestbedConfig(seed=3))


def start_server(testbed):
    server = ThttpdDevpollServer(testbed.server_kernel)
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    return server


def run_client(testbed, **cfg):
    client = HttperfClient(testbed, HttperfConfig(**cfg))
    client.start()
    horizon = testbed.sim.now + cfg.get("duration", 2.0) + cfg.get(
        "timeout", 5.0) + 20.0
    while not client.done.triggered and testbed.sim.now < horizon:
        testbed.sim.run(until=testbed.sim.now + 0.25)
    assert client.done.triggered, "client did not finish"
    return client.result


def test_happy_path_counts_replies(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=100, duration=2.0)
    assert result.attempts == result.completions == result.replies_ok
    assert result.attempts >= 150  # ~200 at rate 100 for 2s
    assert result.errors.total == 0
    assert result.error_percent == 0.0
    assert result.bytes_received > result.replies_ok * 6144


def test_reply_rate_summary_matches_offered_load(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=200, duration=3.0)
    assert result.reply_rate.avg == pytest.approx(200, rel=0.15)
    assert result.reply_rate.samples == 3


def test_num_conns_mode(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=100, num_conns=50)
    assert result.attempts == 50


def test_connection_time_statistics(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=50, duration=2.0)
    median = result.median_conn_time_ms()
    assert median is not None
    assert 0.1 < median < 100.0


def test_refused_when_no_server(testbed):
    result = run_client(testbed, rate=50, duration=1.0)
    assert result.replies_ok == 0
    assert result.errors.refused == result.attempts
    assert result.error_percent == 100.0


def test_timeouts_when_server_never_replies(testbed):
    """A listener that accepts but never responds: every connection must
    be classed as a timeout after cfg.timeout."""
    from repro.kernel.syscalls import SyscallInterface
    from repro.sim.process import spawn

    task = testbed.server_kernel.new_task("mute", fd_limit=4096)
    sys = SyscallInterface(task)

    def mute_server():
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 80)
        yield from sys.listen(lfd, 128)
        while True:
            fd, _ = yield from sys.accept(lfd)

    spawn(testbed.sim, mute_server(), "mute")
    testbed.sim.run(until=0.05)
    result = run_client(testbed, rate=40, duration=1.0, timeout=2.0)
    assert result.errors.timeouts == result.attempts
    assert result.replies_ok == 0


def test_fd_exhaustion_classified(testbed):
    """Stock httperf's 1024-fd assumption: with a tiny limit and a mute
    server, later connections fail with fd_unavail."""
    from repro.kernel.syscalls import SyscallInterface
    from repro.sim.process import spawn

    task = testbed.server_kernel.new_task("mute", fd_limit=4096)
    sys = SyscallInterface(task)

    def mute_server():
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 80)
        yield from sys.listen(lfd, 128)
        while True:
            fd, _ = yield from sys.accept(lfd)

    spawn(testbed.sim, mute_server(), "mute")
    testbed.sim.run(until=0.05)
    result = run_client(testbed, rate=100, duration=1.0, timeout=5.0,
                        fd_limit=16)
    assert result.errors.fd_unavail > 0


def test_deterministic_arrivals_mode(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=100, duration=1.0,
                        arrival="deterministic", jitter=0.0)
    assert result.attempts == pytest.approx(100, abs=2)


def test_same_seed_reproduces_exactly():
    results = []
    for _ in range(2):
        tb = Testbed(TestbedConfig(seed=42))
        start_server(tb)
        client = HttperfClient(tb, HttperfConfig(rate=80, duration=1.0))
        client.start()
        while not client.done.triggered and tb.sim.now < 30:
            tb.sim.run(until=tb.sim.now + 0.25)
        results.append((client.result.attempts, client.result.replies_ok,
                        client.result.reply_rate.avg,
                        tb.sim.events_processed))
    assert results[0] == results[1]


def test_different_seeds_differ():
    attempts = []
    for seed in (1, 2):
        tb = Testbed(TestbedConfig(seed=seed))
        start_server(tb)
        client = HttperfClient(tb, HttperfConfig(rate=80, duration=1.0))
        client.start()
        while not client.done.triggered and tb.sim.now < 30:
            tb.sim.run(until=tb.sim.now + 0.25)
        attempts.append(tb.sim.events_processed)
    assert attempts[0] != attempts[1]


def test_latency_percentiles(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=100, duration=2.0)
    summary = result.latency_summary_ms()
    assert summary is not None
    assert (summary["min"] <= summary["median"] <= summary["p90"]
            <= summary["p99"] <= summary["max"])
    assert result.conn_time_quantile_ms(0.5) == summary["median"]


def test_latency_summary_none_without_replies(testbed):
    result = run_client(testbed, rate=20, duration=0.5)  # no server
    assert result.latency_summary_ms() is None
    assert result.conn_time_quantile_ms(0.9) is None


def test_doc_paths_round_robin(testbed):
    from repro.http.content import StaticSite
    from repro.servers.thttpd import ThttpdDevpollServer

    site = StaticSite.size_distribution([1024, 2048, 4096])
    server = ThttpdDevpollServer(testbed.server_kernel, site)
    server.start()
    testbed.sim.run(until=testbed.sim.now + 0.05)
    client = HttperfClient(testbed, HttperfConfig(
        rate=100, duration=2.0, doc_paths=site.paths()))
    client.start()
    while not client.done.triggered and testbed.sim.now < 30:
        testbed.sim.run(until=testbed.sim.now + 0.25)
    assert client.result.error_percent == 0.0
    assert set(site.hits) == set(site.paths())


def test_reply_log_aligned_and_ordered(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=80, duration=1.5)
    log = result.reply_log
    assert len(log) == result.replies_ok == result.completions > 0
    times = [t for t, _ms in log]
    assert times == sorted(times)  # completion order
    # each entry is one reply: its connection began inside the run, and
    # the exact statistics read these latencies
    assert all(t - ms / 1000.0 >= result.started_at for t, ms in log)
    summary = result.latency_summary_ms()
    assert summary["min"] == min(ms for _t, ms in log)
    assert summary["max"] == max(ms for _t, ms in log)


def test_reply_rate_samples_exposed(testbed):
    start_server(testbed)
    result = run_client(testbed, rate=100, duration=3.0)
    assert len(result.reply_rate_samples) == 3
    assert sum(result.reply_rate_samples) == pytest.approx(
        result.reply_rate.avg * 3, rel=1e-6)


def test_latency_hist_tracks_sample_set(testbed):
    """The log-bucket percentiles and the exact quantiles read the same
    reply log; they agree within the bucket's relative error."""
    start_server(testbed)
    result = run_client(testbed, rate=150, duration=2.0)
    pct = result.latency_percentiles_ms()
    assert pct["count"] == len(result.reply_log) == result.replies_ok
    for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        assert pct[name] == pytest.approx(
            result.conn_time_quantile_ms(q), rel=0.10)
    assert pct["p50"] <= pct["p99.9"]


def test_latency_percentiles_none_before_any_reply(testbed):
    result = run_client(testbed, rate=20, duration=0.5)  # no server
    assert result.latency_percentiles_ms() is None


def test_partial_summary_public_safety_net(testbed):
    """The harness's cut-off path reads a public partial summary (not
    the client's private reply window)."""
    start_server(testbed)
    client = HttperfClient(testbed, HttperfConfig(rate=100, duration=2.0))
    client.start()
    # advance only half the run: the generator is still mid-flight
    testbed.sim.run(until=testbed.sim.now + 1.0)
    assert not client.done.triggered
    partial = client.partial_summary()
    assert partial.avg == pytest.approx(100, rel=0.5)
    assert client.result.reply_rate is partial
    assert len(client.result.reply_rate_samples) == partial.samples
    # finishing the run must still produce the real summary
    while not client.done.triggered and testbed.sim.now < 30:
        testbed.sim.run(until=testbed.sim.now + 0.25)
    assert client.done.triggered
    assert client.result.reply_rate.samples == 2
