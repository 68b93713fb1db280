"""Unit tests for time-series instrumentation."""

import pytest

from repro.obs.timeseries import RateMeter, TimeSeries, WindowedCounter


class TestTimeSeries:
    def test_record_and_accessors(self):
        ts = TimeSeries("x")
        ts.record(10, 1.0)
        ts.record(20, 3.0)
        assert len(ts) == 2
        assert ts.samples == [(10, 1.0), (20, 3.0)]

    def test_mean_empty_is_zero(self):
        assert TimeSeries().mean() == 0.0

    def test_mean(self):
        ts = TimeSeries()
        for t, v in [(0, 2.0), (1, 4.0), (2, 6.0)]:
            ts.record(t, v)
        assert ts.mean() == pytest.approx(4.0)

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.record(0, 10.0)    # holds for 90 ns
        ts.record(90, 0.0)    # final sample, zero weight
        assert ts.time_weighted_mean() == pytest.approx(10.0)

    def test_time_weighted_mean_weights_by_duration(self):
        ts = TimeSeries()
        ts.record(0, 100.0)   # 10 ns
        ts.record(10, 0.0)    # 90 ns
        ts.record(100, 50.0)  # terminal
        assert ts.time_weighted_mean() == pytest.approx(10.0)

    def test_time_weighted_falls_back_with_one_sample(self):
        ts = TimeSeries()
        ts.record(5, 7.0)
        assert ts.time_weighted_mean() == 7.0


class TestWindowedCounter:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowedCounter(0)

    def test_counts_bucket_by_window(self):
        wc = WindowedCounter(100)
        wc.add(10)
        wc.add(99)
        wc.add(100)
        wc.add(250)
        assert wc.series() == [(0, 2.0), (100, 1.0), (200, 1.0)]
        assert wc.total() == 4.0

    def test_weighted_amounts(self):
        wc = WindowedCounter(10)
        wc.add(0, 2.5)
        wc.add(5, 2.5)
        assert wc.series() == [(0, 5.0)]

    def test_ratio_series(self):
        num = WindowedCounter(10)
        den = WindowedCounter(10)
        for t in range(0, 30):
            den.add(t)
        num.add(5)
        num.add(15)
        num.add(16)
        ratios = dict(WindowedCounter.ratio_series(num, den))
        assert ratios[0] == pytest.approx(0.1)
        assert ratios[10] == pytest.approx(0.2)
        assert 20 not in ratios  # numerator empty there

    def test_ratio_series_requires_matching_windows(self):
        with pytest.raises(ValueError):
            WindowedCounter.ratio_series(WindowedCounter(10),
                                         WindowedCounter(20))


class TestRateMeter:
    def test_series_gbps(self):
        meter = RateMeter(1_000)  # 1 us windows
        meter.add_bytes(0, 125)   # 1000 bits in 1 us = 1 Gbps
        series = meter.series_gbps()
        assert series == [(0, pytest.approx(1.0))]

    def test_empty_meter(self):
        meter = RateMeter(1_000)
        assert meter.series_gbps() == []
