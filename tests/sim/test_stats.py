"""Unit tests for measurement helpers (the httperf statistics)."""

import math
import statistics

import pytest

from repro.bench.httperf import HttperfResult
from repro.sim.stats import (
    RATE_WINDOW,
    ErrorCounter,
    RateSummary,
    quantile,
    window_rates,
)


# ---------------------------------------------------------------------------
# window_rates
# ---------------------------------------------------------------------------

def test_windowed_rate_counts_per_window():
    assert window_rates([0.1, 0.2, 1.5, 2.9], 0.0, 3.0) == [2.0, 1.0, 1.0]


def test_windowed_rate_zero_windows_inside_span_count():
    assert window_rates([0.5, 3.5], 0.0, 4.0) == [1.0, 0.0, 0.0, 1.0]


def test_windowed_rate_ignores_stragglers_after_span():
    # 2.7 is after the span: a drain-time straggler
    assert window_rates([0.5, 2.7], 0.0, 2.0) == [1.0, 0.0]


def test_windowed_rate_aligned_to_span_start():
    assert window_rates([10.4, 10.6], 10.3, 12.3) == [2.0, 0.0]


def test_windowed_rate_partial_last_window_dropped():
    # only one complete window
    assert window_rates([0.5, 1.5], 0.0, 1.9) == [1.0]


def test_windowed_rate_without_span_uses_observed_range():
    times = [5.2, 6.4]
    rates = window_rates(times, times[0], times[-1] + RATE_WINDOW)
    assert sum(rates) == pytest.approx(2.0)


def test_windowed_rate_empty():
    assert window_rates([], 0.0, 0.0) == []
    assert RateSummary.from_samples(window_rates([], 0.0, 0.0)).samples == 0


# ---------------------------------------------------------------------------
# RateSummary
# ---------------------------------------------------------------------------

def test_rate_summary_from_samples():
    s = RateSummary.from_samples([1.0, 2.0, 3.0])
    assert s.avg == pytest.approx(2.0)
    assert s.min == 1.0
    assert s.max == 3.0
    assert s.stddev == pytest.approx(statistics.pstdev([1, 2, 3]))
    assert s.samples == 3


def test_rate_summary_empty():
    s = RateSummary.from_samples([])
    assert (s.avg, s.min, s.max, s.stddev, s.samples) == (0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------

def test_sampleset_median_odd_even():
    assert quantile(sorted([5.0, 1.0, 3.0]), 0.5) == 3.0
    # interpolated
    assert quantile(sorted([5.0, 1.0, 3.0, 7.0]), 0.5) == 4.0


def test_sampleset_quantiles_match_reference():
    values = [float(v) for v in range(1, 101)]
    # linear interpolation matches statistics.quantiles(n=..., method state)
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 1.0) == 100.0
    assert quantile(values, 0.5) == pytest.approx(statistics.median(values))


def test_sampleset_single_value():
    for q in (0.0, 0.3, 0.5, 1.0):
        assert quantile([42.0], q) == 42.0


def test_sampleset_errors():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_sampleset_interleaved_add_and_query():
    """The reply log's sorted connection times are reused between reads,
    but a read after more replies are logged sees them."""
    result = HttperfResult()
    result.reply_log.append((0.1, 3.0))
    assert result.median_conn_time_ms() == 3.0
    result.reply_log.append((0.2, 1.0))  # must re-sort
    assert result.latency_summary_ms()["min"] == 1.0
    assert result.median_conn_time_ms() == 2.0


# ---------------------------------------------------------------------------
# ErrorCounter
# ---------------------------------------------------------------------------

def test_error_counter_total_and_percent():
    ec = ErrorCounter(fd_unavail=1, timeouts=2, refused=3, other=4)
    assert ec.total == 10
    assert ec.percent_of(40) == 25.0
    assert ec.percent_of(0) == 0.0


def test_error_counter_as_dict():
    ec = ErrorCounter(timeouts=5)
    assert ec.as_dict()["timeouts"] == 5
    assert set(ec.as_dict()) == {"fd_unavail", "timeouts", "refused", "other"}
