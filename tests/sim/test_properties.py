"""Property-based tests for the engine and stats (hypothesis)."""

import statistics

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.stats import RATE_WINDOW, quantile, window_rates


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                          allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=60)
def test_engine_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=2, max_size=100),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=80)
def test_sampleset_quantile_bounds_and_monotonicity(values, q):
    ordered = sorted(values)
    assert min(values) <= quantile(ordered, q) <= max(values)
    assert quantile(ordered, 0.0) == min(values)
    assert quantile(ordered, 1.0) == max(values)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1, max_size=100))
@settings(max_examples=60)
def test_sampleset_median_matches_statistics(values):
    median = quantile(sorted(values), 0.5)
    assert abs(median - statistics.median(values)) < 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=9.999, allow_nan=False),
                max_size=200))
@settings(max_examples=60)
def test_windowed_rate_conserves_events_inside_span(times):
    rates = window_rates(times, 0.0, 10.0)
    assert sum(rates) == len(times)
    assert len(rates) == 10


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=40)
def test_windowed_rate_uniform_events(nwindows, seed):
    """One event per window => every rate sample equals 1/window."""
    import random

    rng = random.Random(seed)
    times = [k * RATE_WINDOW + rng.uniform(0, RATE_WINDOW * 0.999)
             for k in range(nwindows)]
    rates = window_rates(times, 0.0, nwindows * RATE_WINDOW)
    assert rates == [1.0 / RATE_WINDOW] * nwindows
