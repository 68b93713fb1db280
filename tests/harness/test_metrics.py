"""Unit tests for the Metrics hub and FlowStats math."""

import pytest

from repro.harness.metrics import FlowStats, Metrics
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.packet import FlowKey, data_packet
from repro.sim.engine import Simulator


def two_nics():
    """Two NICs under one ToR: the senders do the counting."""
    return Network(NetworkConfig(topology=TopologySpec(
        num_tors=1, num_spines=1, nics_per_tor=2)))


class TestFlowStats:
    def test_goodput_math(self):
        stats = FlowStats(FlowKey(0, 1), start_ns=1000)
        stats.bytes_posted = 125_000          # 1 Mbit
        stats.sender_done_ns = 1000 + 1_000_000  # 1 ms later
        assert stats.goodput_gbps() == pytest.approx(1.0)

    def test_goodput_zero_without_completion(self):
        stats = FlowStats(FlowKey(0, 1))
        stats.bytes_posted = 1000
        assert stats.goodput_gbps() == 0.0

    def test_retransmission_ratio(self):
        stats = FlowStats(FlowKey(0, 1))
        stats.packets_sent = 100
        stats.retransmissions = 16
        assert stats.retransmission_ratio == pytest.approx(0.16)

    def test_ratio_zero_without_traffic(self):
        assert FlowStats(FlowKey(0, 1)).retransmission_ratio == 0.0


class TestMetrics:
    def _metrics(self):
        return Metrics(Simulator())

    def test_flow_stats_created_on_demand(self):
        metrics = self._metrics()
        flow = FlowKey(0, 1)
        stats = metrics.flow_stats(flow)
        assert metrics.flow_stats(flow) is stats

    def test_on_data_sent_counts(self):
        net = two_nics()
        metrics = net.metrics
        flow = net.watch_flow(0, 1)
        net.post_message(0, 1, 1000)
        net.run(until_ns=0)                         # PSN 0 is on the wire
        net.nics[0].senders[flow].force_retransmit(0)
        net.run()
        assert metrics.data_packets_sent == 2
        assert metrics.retransmissions == 1
        assert metrics.spurious_ratio == pytest.approx(0.5)
        stats = metrics.flows[flow]
        assert stats.packets_sent == 2
        assert stats.retransmissions == 1
        # The watched flow's windows take the sender's retx flag, not a
        # packet: both segments land in them as the uplink pulls them.
        assert metrics.sent_counters[flow].total() == 2
        assert metrics.retx_counters[flow].total() == 1
        metrics.on_data_sent(flow, False)
        metrics.on_data_sent(flow, True)
        assert metrics.sent_counters[flow].total() == 4
        assert metrics.retx_counters[flow].total() == 2

    def test_spurious_ratio_empty(self):
        assert self._metrics().spurious_ratio == 0.0

    def test_watch_flow_creates_trace_sinks(self):
        metrics = self._metrics()
        flow = FlowKey(2, 3)
        metrics.watch_flow(flow)
        assert flow in metrics.sent_counters
        assert flow in metrics.rate_traces
        assert metrics.rate_trace_for(flow) is not None
        assert metrics.rate_trace_for(FlowKey(9, 9)) is None

    def test_watched_flow_series_populated(self):
        net = two_nics()
        metrics = net.metrics
        flow = net.watch_flow(0, 1)
        net.post_message(0, 1, 1000)
        net.run()
        assert metrics.sent_counters[flow].total() == 1
        assert metrics.retx_counters[flow].total() == 0
        # 1000 B delivered inside the first 100 us window.
        assert metrics.throughput_meters[flow].series_gbps() == [
            (0, pytest.approx(0.08))]
        assert metrics.data_packets_sent == 1       # counted once

    def test_unwatched_flow_has_no_series(self):
        net = two_nics()
        net.watch_flow(1, 0)
        flow = net.post_message(0, 1, 1000)
        net.run()
        assert flow not in net.metrics.sent_counters
        assert net.metrics.flows[flow].packets_sent == 1

    def test_all_flows_done(self):
        metrics = self._metrics()
        stats = metrics.flow_stats(FlowKey(0, 1))
        assert not metrics.all_flows_done()
        stats.receiver_done_ns = 5
        assert metrics.all_flows_done()

    def test_mean_goodput_ignores_empty_flows(self):
        metrics = self._metrics()
        a = metrics.flow_stats(FlowKey(0, 1))
        a.bytes_posted = 125_000
        a.sender_done_ns = 1_000_000
        metrics.flow_stats(FlowKey(2, 3))  # no bytes posted
        assert metrics.mean_goodput_gbps() == pytest.approx(1.0)

    def test_summary_keys(self):
        summary = self._metrics().summary()
        assert {"data_packets_sent", "spurious_ratio", "drops",
                "themis_blocked", "mean_goodput_gbps"} <= set(summary)

    def test_drop_listener_called(self):
        metrics = self._metrics()
        seen = []
        metrics.drop_listeners.append(seen.append)
        pkt = data_packet(FlowKey(0, 1), 0, 100)
        metrics.on_drop(pkt)
        assert seen == [pkt]
        assert metrics.drops == 1
