"""Unit tests for the sender QP: pacing, completions, NACK/RTO reaction."""

import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.cc.base import FixedRate
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.packet import FlowKey
from repro.rnic.bitmap import OooTracker
from repro.rnic.config import RnicConfig
from repro.rnic.reliability import RECEIVER_CLASSES
from repro.sim.engine import MS, US


class TestMessaging:
    def test_message_completes_end_to_end(self, nic_pair):
        done = []
        nic_pair.nics[0].post_send(1, 100_000, on_done=lambda: done.append(1))
        nic_pair.nics[1].expect_message(0, 100_000)
        nic_pair.run()
        assert done == [1]
        sender = nic_pair.nics[0].senders[FlowKey(0, 1)]
        assert sender.complete

    def test_receiver_completion_fires(self, nic_pair):
        got = []
        nic_pair.nics[0].post_send(1, 50_000)
        nic_pair.nics[1].expect_message(0, 50_000,
                                        on_done=lambda: got.append(1))
        nic_pair.run()
        assert got == [1]

    def test_multiple_messages_share_psn_space(self, nic_pair):
        order = []
        nic0, nic1 = nic_pair.nics
        nic0.post_send(1, 30_000, on_done=lambda: order.append("m1"))
        nic0.post_send(1, 30_000, on_done=lambda: order.append("m2"))
        nic1.expect_message(0, 30_000)
        nic1.expect_message(0, 30_000)
        nic_pair.run()
        assert order == ["m1", "m2"]
        sender = nic0.senders[FlowKey(0, 1)]
        cfg = nic_pair.config
        assert sender.total_psns == 2 * cfg.packets_for(30_000)

    def test_payload_for_last_packet_is_remainder(self, nic_pair):
        seen = nic_pair.tap()
        nic_pair.nics[0].post_send(1, 2000)
        nic_pair.nics[1].expect_message(0, 2000)
        nic_pair.run()
        payload = nic_pair.config.payload_bytes
        assert seen == [(0, payload), (1, 2000 - payload)]

    def test_payload_for_unposted_psn_raises(self, nic_pair):
        """No segment exists past the posted PSNs: the wire carries the
        one posted segment and nothing after it."""
        seen = nic_pair.tap()
        nic_pair.nics[0].post_send(1, 1000)
        nic_pair.nics[1].expect_message(0, 1000)
        nic_pair.run()
        assert seen == [(0, 1000)]
        assert nic_pair.nics[0].senders[FlowKey(0, 1)].total_psns == 1

    def test_stats_bytes_posted(self, nic_pair):
        nic_pair.nics[0].post_send(1, 123_456)
        nic_pair.nics[1].expect_message(0, 123_456)
        nic_pair.run()
        stats = nic_pair.metrics.flows[FlowKey(0, 1)]
        assert stats.bytes_posted == 123_456
        assert stats.sender_done_ns is not None


class TestPacing:
    def test_rate_limits_throughput(self, make_nic_pair):
        # 10 Gbps CC rate on a 100 Gbps wire.
        pair = make_nic_pair()
        for nic in pair.nics:
            nic.cc_factory = lambda flow, sim=pair.sim: FixedRate(sim, 10e9)
        pair.nics[0].post_send(1, 1_000_000)
        pair.nics[1].expect_message(0, 1_000_000)
        pair.run()
        stats = pair.metrics.flows[FlowKey(0, 1)]
        seconds = stats.sender_done_ns / 1e9
        gbps = 1_000_000 * 8 / seconds / 1e9
        assert 7.0 < gbps < 10.5

    def test_line_rate_achievable(self, nic_pair):
        nic_pair.nics[0].post_send(1, 4_000_000)
        nic_pair.nics[1].expect_message(0, 4_000_000)
        nic_pair.run()
        stats = nic_pair.metrics.flows[FlowKey(0, 1)]
        gbps = 4_000_000 * 8 / stats.sender_done_ns
        assert gbps > 85  # of 100G line rate, minus ack latency

    def test_window_bounds_inflight(self, make_nic_pair):
        pair = make_nic_pair(config=RnicConfig(max_inflight_packets=4))
        pair.nics[0].post_send(1, 1_000_000)
        pair.nics[1].expect_message(0, 1_000_000)
        sender = pair.nics[0].senders[FlowKey(0, 1)]
        seen = []
        pair.sim.trace = lambda time, seq, cb: seen.append(sender.inflight)
        pair.run()
        assert 0 < max(seen) <= 4
        assert sender.complete


class TestNackReaction:
    def test_nack_triggers_selective_retransmit(self, nic_pair):
        nic0 = nic_pair.nics[0]
        nic0.post_send(1, 100_000)
        nic_pair.nics[1].expect_message(0, 100_000)
        sender = nic0.senders[FlowKey(0, 1)]
        # Run a little, then inject a NACK for PSN 3.
        nic_pair.run(until=5_000)
        before = sender.stats.retransmissions
        target = sender.snd_una + 1  # an in-flight PSN
        assert target < sender.next_psn
        sender.on_nack(target)
        nic_pair.run()
        assert sender.stats.nacks_received == 1
        assert sender.stats.retransmissions >= before + 1
        assert sender.complete

    def test_nack_advances_cumulative_ack(self, nic_pair):
        nic0 = nic_pair.nics[0]
        nic0.post_send(1, 100_000)
        nic_pair.nics[1].expect_message(0, 100_000)
        sender = nic0.senders[FlowKey(0, 1)]
        nic_pair.run(until=5_000)
        sender.on_nack(10)
        assert sender.snd_una >= 10

    def test_duplicate_nacks_queue_single_retx(self, nic_pair):
        nic0 = nic_pair.nics[0]
        nic0.post_send(1, 1_000_000)
        sender = nic0.senders[FlowKey(0, 1)]
        nic_pair.run(until=3_000)
        target = sender.snd_una + 5
        sender._queue_retx(target)
        sender._queue_retx(target)
        assert sender._retx_queue.count(target) == 1

    def test_gbn_rewinds_on_nack(self, make_nic_pair):
        pair = make_nic_pair(transport="gbn")
        nic0 = pair.nics[0]
        nic0.post_send(1, 1_000_000)
        pair.nics[1].expect_message(0, 1_000_000)
        sender = nic0.senders[FlowKey(0, 1)]
        pair.run(until=10_000)
        high = sender.next_psn
        assert high > 10
        sender.on_nack(5)
        assert sender.next_psn == 5
        pair.run()
        assert sender.complete
        # The rewound span was re-sent.
        assert sender.stats.retransmissions >= high - 5 - 1


class TestTimeout:
    def test_rto_fires_when_no_progress(self, make_nic_pair):
        pair = make_nic_pair(config=RnicConfig(rto_ns=100 * US))
        # Break the wire so nothing is delivered.
        pair.nics[0].uplink.up = False
        pair.nics[0].post_send(1, 10_000)
        pair.run(until=2 * MS)
        sender = pair.nics[0].senders[FlowKey(0, 1)]
        assert sender.stats.timeouts >= 1
        assert not sender.complete

    def test_rto_backoff_is_bounded(self, make_nic_pair):
        cfg = RnicConfig(rto_ns=100 * US, rto_backoff=2.0,
                         rto_max_ns=400 * US)
        pair = make_nic_pair(config=cfg)
        pair.nics[0].uplink.up = False
        pair.nics[0].post_send(1, 10_000)
        pair.run(until=5 * MS)
        sender = pair.nics[0].senders[FlowKey(0, 1)]
        assert sender._rto_current_ns <= cfg.rto_max_ns

    def test_rto_fires_rto_ns_after_progress_that_resets_the_backoff(
            self, make_nic_pair):
        """A timeout doubles the backoff and arms the next RTO for
        ``2 * rto_ns`` later; an ACK that advances ``snd_una`` resets the
        backoff, so the next RTO fires ``rto_ns`` after that ACK, not at
        the backed-off deadline."""
        rto = 100 * US
        pair = make_nic_pair(config=RnicConfig(rto_ns=rto))
        pair.nics[0].uplink.up = False
        pair.nics[0].post_send(1, 10_000)
        sender = pair.nics[0].senders[FlowKey(0, 1)]
        pair.run(until=rto)
        assert sender.stats.timeouts == 1
        assert sender._rto_current_ns == 2 * rto
        ack_at = rto + 20 * US
        pair.run(until=ack_at)
        sender.on_ack(1)
        assert sender._rto_current_ns == rto
        pair.run(until=ack_at + rto - 1)
        assert sender.stats.timeouts == 1
        pair.run(until=ack_at + rto)
        assert sender.stats.timeouts == 2

    def test_recovery_after_transient_outage(self, make_nic_pair):
        pair = make_nic_pair(config=RnicConfig(rto_ns=100 * US))
        pair.nics[0].uplink.up = False
        done = []
        pair.nics[0].post_send(1, 10_000, on_done=lambda: done.append(1))
        pair.nics[1].expect_message(0, 10_000)
        pair.run(until=300 * US)
        pair.nics[0].uplink.up = True
        pair.run()
        assert done == [1]


class TestOracle:
    def test_force_retransmit_resends_without_nack(self, nic_pair):
        nic0 = nic_pair.nics[0]
        nic0.post_send(1, 100_000)
        nic_pair.nics[1].expect_message(0, 100_000)
        sender = nic0.senders[FlowKey(0, 1)]
        nic_pair.run(until=3_000)
        sender.force_retransmit(sender.snd_una + 1)
        nic_pair.run()
        assert sender.stats.retransmissions >= 1
        assert sender.stats.nacks_received == 0
        assert sender.complete


def _posted_alltoall(transport, nics=16):
    """A 4-ToR leaf-spine fabric with one message posted on every
    ordered NIC pair; returns it with the tracemalloc bytes per flow of
    the posting (the fabric itself is built before tracing starts)."""
    topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=4,
                        nics_per_tor=nics // 4, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    net = Network(NetworkConfig(topology=topo, scheme="rps",
                                transport=transport, seed=7))
    pairs = [(s, d) for s in range(nics) for d in range(nics) if s != d]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for src, dst in pairs:
            net.post_message(src, dst, 120_000, on_receiver_done=_no_op)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return net, grown / len(pairs)


def _no_op():
    pass


SRC = os.path.dirname(os.path.dirname(repro.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: Bytes per posted flow in a fresh interpreter, whatever ran before.
_FOOTPRINT_PROBE = """
from tests.rnic.test_sender import _posted_alltoall
print(_posted_alltoall("nic_sr")[1])
"""


class TestFootprint:
    """Every flow holds a sender QP, a receiver QP, a congestion control
    and a ``FlowStats``; an all-to-all holds N x (N - 1) of each at once
    (992 on the ledger's ``spray_alltoall``, 65 280 on a 256-NIC
    fabric).  docs/benchmarking.md, "Per-flow footprint"."""

    @pytest.mark.parametrize("transport", sorted(RECEIVER_CLASSES))
    def test_per_flow_objects_have_no_dict(self, transport):
        """Slotted: a per-instance dict costs 296 B on CPython 3.11, and
        1 584 B once a 30th attribute breaks key sharing."""
        net, _ = _posted_alltoall(transport, nics=4)
        flow = FlowKey(0, 1)
        sender = net.nics[0].senders[flow]
        receiver = net.nics[1].receivers[flow]
        # The out-of-order tracker appears at the first out-of-order
        # arrival, so it is checked on its own.
        objects = [sender, receiver, sender.cc, sender.stats,
                   sender._messages[0], OooTracker()]
        assert [type(obj).__name__ for obj in objects
                if hasattr(obj, "__dict__")] == []

    def test_bytes_per_flow_ceiling(self):
        """Posting 240 flows allocates 2 151-2 168 B per flow on CPython
        3.10-3.13, measured in a fresh interpreter, plus 8 B since the
        QPs hold the time-series sink's emitters (2 159 B on 3.11).
        Inside the suite it read 2 035-2 143 B, by which tests ran
        before (they leave free lists that posting reuses untraced).  A
        receiver creates its out-of-order tracker at the first
        out-of-order arrival; when every receiver built one it read
        2 250-2 405 B in every order tried, 3 513-3 851 B before the
        per-flow classes were slotted.  The ceiling sits between the
        two, about 2 % above the highest value."""
        out = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_PROBE], cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(
                None, [SRC, os.environ.get("PYTHONPATH")]))},
            capture_output=True, text=True, check=True).stdout
        per_flow = float(out.splitlines()[-1])
        assert per_flow <= 2_220, (
            f"{per_flow:.0f} B per flow: a per-flow object grew")
