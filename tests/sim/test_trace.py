"""Unit tests for time-series instrumentation: the recorder's window
sink (``Recorder(window_ns=)``) and Fig. 1c's time-weighted mean."""

import pytest

from repro.harness.motivation import time_weighted_mean
from repro.net.packet import FlowKey
from repro.obs.record import Recorder

FLOW = FlowKey(0, 1)
OTHER = FlowKey(1, 0)


class TestTimeSeries:
    def test_mean_empty_is_zero(self):
        assert time_weighted_mean([]) == 0.0

    def test_mean(self):
        # No time passes: every value weighs the same.
        assert time_weighted_mean([(0, 2.0), (0, 4.0), (0, 6.0)]) \
            == pytest.approx(4.0)

    def test_time_weighted_mean(self):
        # 10.0 holds for 90 ns; the final sample has zero weight.
        assert time_weighted_mean([(0, 10.0), (90, 0.0)]) \
            == pytest.approx(10.0)

    def test_time_weighted_mean_weights_by_duration(self):
        # 100.0 for 10 ns, 0.0 for 90 ns, 50.0 terminal.
        assert time_weighted_mean([(0, 100.0), (10, 0.0), (100, 50.0)]) \
            == pytest.approx(10.0)

    def test_time_weighted_falls_back_with_one_sample(self):
        assert time_weighted_mean([(5, 7.0)]) == 7.0


class TestWindowedCounter:
    """The sink's per-window counts of sends and delivered bytes."""

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Recorder(window_ns=0)

    def test_counts_bucket_by_window(self):
        rec = Recorder(window_ns=100)
        for t in (10, 99, 100, 250):
            rec.window_sent(t, FLOW, True)
        assert rec.retx_ratios() == {
            FLOW: [(0, 1.0), (100, 1.0), (200, 1.0)]}

    def test_weighted_amounts(self):
        rec = Recorder(window_ns=1_000)
        rec.window_delivered(0, FLOW, 100)
        rec.window_delivered(500, FLOW, 25)
        assert rec.delivered_gbps() == {FLOW: [(0, pytest.approx(1.0))]}

    def test_ratio_series(self):
        """A window without a retransmission, or without a send, has no
        ratio; flows are kept apart."""
        rec = Recorder(window_ns=10)
        for t in range(0, 30):
            rec.window_sent(t, FLOW, t in (5, 15, 16))
        rec.window_delivered(35, FLOW, 1000)     # a window with no send
        rec.window_sent(3, OTHER, False)
        ratios = rec.retx_ratios()
        assert list(ratios) == [FLOW]
        assert ratios[FLOW] == [(0, pytest.approx(0.1)),
                                (10, pytest.approx(0.2))]


class TestRateMeter:
    """The sink's delivered bytes per window, read as Gbps."""

    def test_series_gbps(self):
        rec = Recorder(window_ns=1_000)              # 1 us windows
        rec.window_delivered(0, FLOW, 125)           # 1000 bits in 1 us
        rec.window_delivered(2_500, FLOW, 250)
        assert rec.delivered_gbps() == {FLOW: [
            (0, pytest.approx(1.0)), (2_000, pytest.approx(2.0))]}

    def test_empty_meter(self):
        rec = Recorder(window_ns=1_000)
        rec.window_sent(0, FLOW, False)
        assert rec.delivered_gbps() == {}


class TestSinkCost:
    def test_plain_recorder_has_no_sink(self):
        """A recorder without ``window_ns`` hands out no emitter, so a QP
        pays one ``is not None`` test per packet."""
        rec = Recorder()
        assert rec.window_sent is None and rec.window_delivered is None

    def test_sink_writes_no_row_ring_entry_or_count(self):
        rec = Recorder(window_ns=10)
        rec.window_sent(5, FLOW, True)
        rec.window_delivered(5, FLOW, 1000)
        assert rec.total_events() == 0
        assert rec.counts == {} and rec.records() == []
