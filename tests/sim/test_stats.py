"""Unit tests for measurement helpers (the httperf statistics)."""

import math
import statistics

import pytest

from repro.sim.stats import (
    ErrorCounter,
    RateSummary,
    SampleSet,
    WindowedRate,
)


# ---------------------------------------------------------------------------
# WindowedRate
# ---------------------------------------------------------------------------

def test_windowed_rate_counts_per_window():
    wr = WindowedRate(window=1.0)
    for t in (0.1, 0.2, 1.5, 2.9):
        wr.record(t)
    wr.set_span(0.0, 3.0)
    assert wr.rates() == [2.0, 1.0, 1.0]


def test_windowed_rate_zero_windows_inside_span_count():
    wr = WindowedRate(window=1.0)
    wr.record(0.5)
    wr.record(3.5)
    wr.set_span(0.0, 4.0)
    assert wr.rates() == [1.0, 0.0, 0.0, 1.0]


def test_windowed_rate_ignores_stragglers_after_span():
    wr = WindowedRate(window=1.0)
    wr.record(0.5)
    wr.record(2.7)  # after the span: a drain-time straggler
    wr.set_span(0.0, 2.0)
    assert wr.rates() == [1.0, 0.0]


def test_windowed_rate_aligned_to_span_start():
    wr = WindowedRate(window=1.0)
    wr.record(10.4)
    wr.record(10.6)
    wr.set_span(10.3, 12.3)
    assert wr.rates() == [2.0, 0.0]


def test_windowed_rate_partial_last_window_dropped():
    wr = WindowedRate(window=1.0)
    wr.record(0.5)
    wr.record(1.5)
    wr.set_span(0.0, 1.9)  # only one complete window
    assert wr.rates() == [1.0]


def test_windowed_rate_non_unit_window():
    wr = WindowedRate(window=0.5)
    for t in (0.1, 0.4, 0.6):
        wr.record(t)
    wr.set_span(0.0, 1.0)
    assert wr.rates() == [4.0, 2.0]  # counts divided by 0.5s


def test_windowed_rate_without_span_uses_observed_range():
    wr = WindowedRate(window=1.0)
    wr.record(5.2)
    wr.record(6.4)
    rates = wr.rates()
    assert sum(rates) == pytest.approx(2.0)


def test_windowed_rate_empty():
    wr = WindowedRate()
    assert wr.rates() == []
    assert wr.summary().samples == 0


def test_windowed_rate_total():
    wr = WindowedRate()
    for t in range(5):
        wr.record(float(t))
    assert wr.total == 5


def test_windowed_rate_rejects_bad_window():
    with pytest.raises(ValueError):
        WindowedRate(window=0)


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
# SampleSet
# ---------------------------------------------------------------------------

def test_sampleset_median_odd_even():
    ss = SampleSet()
    for v in (5.0, 1.0, 3.0):
        ss.add(v)
    assert ss.median() == 3.0
    ss.add(7.0)
    assert ss.median() == 4.0  # interpolated


def test_sampleset_quantiles_match_reference():
    ss = SampleSet()
    values = [float(v) for v in range(1, 101)]
    for v in values:
        ss.add(v)
    # linear interpolation matches statistics.quantiles(n=..., method state)
    assert ss.quantile(0.0) == 1.0
    assert ss.quantile(1.0) == 100.0
    assert ss.quantile(0.5) == pytest.approx(statistics.median(values))


def test_sampleset_single_value():
    ss = SampleSet()
    ss.add(42.0)
    for q in (0.0, 0.3, 0.5, 1.0):
        assert ss.quantile(q) == 42.0


def test_sampleset_mean_min_max_len():
    ss = SampleSet()
    for v in (2.0, 4.0, 6.0):
        ss.add(v)
    assert ss.mean() == 4.0
    assert ss.min() == 2.0
    assert ss.max() == 6.0
    assert len(ss) == 3


def test_sampleset_errors():
    ss = SampleSet()
    with pytest.raises(ValueError):
        ss.median()
    with pytest.raises(ValueError):
        ss.mean()
    ss.add(1.0)
    with pytest.raises(ValueError):
        ss.quantile(1.5)


def test_sampleset_interleaved_add_and_query():
    ss = SampleSet()
    ss.add(3.0)
    assert ss.median() == 3.0
    ss.add(1.0)  # must re-sort lazily
    assert ss.min() == 1.0
    assert ss.median() == 2.0


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
