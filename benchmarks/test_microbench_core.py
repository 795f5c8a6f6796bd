"""Microbenchmarks of the core data structures (classic pytest-benchmark).

These are wall-clock benchmarks of the reproduction's own hot paths --
useful for keeping the simulator fast enough to run paper-scale sweeps.
"""

import random

import pytest

from repro.core.interest_set import InterestSet
from repro.kernel.constants import POLLIN, POLLREMOVE
from repro.kernel.file import NullFile
from repro.kernel.kernel import Kernel
from repro.kernel.signals import SignalQueue, Siginfo
from repro.sim.engine import Simulator
from repro.sim.stats import RateSummary, quantile, window_rates


@pytest.fixture
def null_file():
    return NullFile(Kernel(Simulator(), "k"), "f")


def test_interest_set_insert_1000(benchmark, null_file):
    def insert():
        s = InterestSet()
        for fd in range(1000):
            s.update(fd, POLLIN, null_file)
        return s

    s = benchmark(insert)
    assert len(s) == 1000


def test_interest_set_lookup_hash(benchmark, null_file):
    s = InterestSet()
    for fd in range(1000):
        s.update(fd, POLLIN, null_file)
    rng = random.Random(0)
    fds = [rng.randrange(1000) for _ in range(256)]

    def lookups():
        for fd in fds:
            s.lookup(fd)

    benchmark(lookups)


def test_interest_set_lookup_linear(benchmark, null_file):
    s = InterestSet(kind="linear")
    for fd in range(1000):
        s.update(fd, POLLIN, null_file)
    rng = random.Random(0)
    fds = [rng.randrange(1000) for _ in range(256)]

    def lookups():
        for fd in fds:
            s.lookup(fd)

    benchmark(lookups)


def test_interest_set_churn(benchmark, null_file):
    def churn():
        s = InterestSet()
        for fd in range(512):
            s.update(fd, POLLIN, null_file)
        for fd in range(0, 512, 2):
            s.update(fd, POLLREMOVE, None)
        for fd in range(512, 768):
            s.update(fd, POLLIN, null_file)
        return s

    s = benchmark(churn)
    assert len(s) == 512


def test_signal_queue_post_dequeue(benchmark):
    def cycle():
        q = SignalQueue(rtsig_max=2048)
        for i in range(1000):
            q.post(Siginfo(si_signo=33 + (i % 30), si_fd=i))
        drained = 0
        while q.dequeue() is not None:
            drained += 1
        return drained

    assert benchmark(cycle) == 1000


def test_engine_event_throughput(benchmark):
    def run_10k():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return counter[0]

    assert benchmark(run_10k) == 10_000


def test_windowed_rate_ingest(benchmark):
    rng = random.Random(0)
    times = [rng.uniform(0, 60) for _ in range(20_000)]

    def ingest():
        return RateSummary.from_samples(window_rates(times, 0, 60))

    summary = benchmark(ingest)
    assert summary.samples == 60


def test_sampleset_quantiles(benchmark):
    rng = random.Random(0)
    values = [rng.expovariate(1.0) for _ in range(20_000)]

    def quantiles():
        ordered = sorted(values)
        return quantile(ordered, 0.5), quantile(ordered, 0.99)

    median, p99 = benchmark(quantiles)
    assert 0 < median < p99
