"""Unit tests for the receiver transports (NIC-SR, GBN, Ideal).

These drive receivers directly with hand-crafted packet arrival orders,
checking the §2.2 semantics the whole paper hinges on.
"""

import pytest

from repro.cc.base import FixedRate
from repro.harness.metrics import Metrics
from repro.net.packet import FlowKey, PacketType, data_packet
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.rnic.reliability import GbnReceiver, IdealReceiver, NicSrReceiver
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng


class Harness:
    """One receiving RNIC whose uplink is captured for inspection."""

    def __init__(self, transport="nic_sr"):
        self.sim = Simulator()
        self.metrics = Metrics(self.sim)
        self.nic = Rnic(self.sim, 1, config=RnicConfig(),
                        metrics=self.metrics, rng=SimRng(1),
                        cc_factory=lambda f: FixedRate(self.sim, 100e9),
                        transport=transport)

        class Capture:
            def __init__(self):
                self.sent = []

            def enqueue(self, packet):
                self.sent.append(packet)
                return True

        self.wire = Capture()
        self.nic.uplink = self.wire
        self.flow = FlowKey(0, 1)

    def deliver(self, psn, *, ecn=False, payload=1000):
        pkt = data_packet(self.flow, psn, payload)
        pkt.ecn_marked = ecn
        self.nic.receive(pkt, None)
        return pkt

    def control_sent(self, ptype):
        return [p for p in self.wire.sent if p.ptype is ptype]

    @property
    def receiver(self):
        return self.nic.receivers[self.flow]


class TestNicSr:
    def test_in_order_advances_epsn(self):
        h = Harness()
        for psn in range(5):
            h.deliver(psn)
        assert h.receiver.epsn == 5
        assert h.control_sent(PacketType.NACK) == []

    def test_ooo_triggers_nack_with_epsn_only(self):
        h = Harness()
        h.deliver(0)
        h.deliver(2)  # PSN 1 skipped
        nacks = h.control_sent(PacketType.NACK)
        assert len(nacks) == 1
        assert nacks[0].epsn == 1

    def test_at_most_one_nack_per_epsn(self):
        """Faithful §2.2 rule: more OOO arrivals for the same ePSN do not
        produce further NACKs."""
        h = Harness()
        h.deliver(0)
        h.deliver(2)
        h.deliver(3)
        h.deliver(4)
        assert len(h.control_sent(PacketType.NACK)) == 1

    def test_new_epsn_can_nack_again(self):
        h = Harness()
        h.deliver(0)
        h.deliver(2)                      # NACK for ePSN=1
        h.deliver(1)                      # heals; ePSN -> 3
        assert h.receiver.epsn == 3
        h.deliver(5)                      # new stall at ePSN=3
        nacks = h.control_sent(PacketType.NACK)
        assert [n.epsn for n in nacks] == [1, 3]

    def test_bitmap_fill_advances_over_run(self):
        h = Harness()
        for psn in (0, 3, 2, 4):
            h.deliver(psn)
        h.deliver(1)
        assert h.receiver.epsn == 5

    def test_duplicates_counted_not_nacked(self):
        h = Harness()
        h.deliver(0)
        h.deliver(1)
        h.deliver(1)      # duplicate below bitmap
        h.deliver(3)      # OOO, stored
        h.deliver(3)      # duplicate inside bitmap
        stats = h.metrics.flows[h.flow]
        assert stats.receiver_duplicates == 2
        assert len(h.control_sent(PacketType.NACK)) == 1

    def test_completion_on_message_boundary(self):
        h = Harness()
        done = []
        payload = RnicConfig().payload_bytes
        h.nic.expect_message(0, 3 * payload, on_done=lambda: done.append(1))
        h.deliver(0, payload=payload)
        h.deliver(2, payload=payload)   # OOO
        assert done == []
        h.deliver(1, payload=payload)   # heals -> ePSN=3 -> complete
        assert done == [1]


class TestAckGeneration:
    def test_acks_coalesced(self):
        h = Harness()
        for psn in range(4):  # ack_coalesce_packets = 4
            h.deliver(psn)
        acks = h.control_sent(PacketType.ACK)
        assert len(acks) == 1
        assert acks[0].epsn == 4

    def test_delayed_ack_fires_for_straggler(self):
        h = Harness()
        h.deliver(0)
        assert h.control_sent(PacketType.ACK) == []
        h.sim.run()
        acks = h.control_sent(PacketType.ACK)
        assert len(acks) == 1
        assert acks[0].epsn == 1

    def test_cnp_on_ecn_marked_packet(self):
        h = Harness()
        h.deliver(0, ecn=True)
        assert len(h.control_sent(PacketType.CNP)) == 1

    def test_cnp_rate_limited(self):
        h = Harness()
        for psn in range(10):
            h.deliver(psn, ecn=True)
        # All within one cnp_interval -> a single CNP.
        assert len(h.control_sent(PacketType.CNP)) == 1

    def test_cnp_interval_elapses(self):
        h = Harness()
        h.deliver(0, ecn=True)
        h.sim.run()  # drain timers
        h.sim.schedule(60_000, lambda: None)
        h.sim.run()  # advance past the 50 us interval
        h.deliver(1, ecn=True)
        assert len(h.control_sent(PacketType.CNP)) == 2


class TestGbn:
    def test_ooo_dropped_entirely(self):
        h = Harness(transport="gbn")
        h.deliver(0)
        h.deliver(2)
        assert h.receiver.epsn == 1
        assert h.receiver.stats.receiver_ooo == 1
        # Delivering 1 now does NOT heal 2 (it was dropped, must be resent)
        h.deliver(1)
        assert h.receiver.epsn == 2

    def test_nack_once_per_epsn(self):
        h = Harness(transport="gbn")
        h.deliver(0)
        h.deliver(2)
        h.deliver(3)
        assert len(h.control_sent(PacketType.NACK)) == 1

    def test_duplicate_below_epsn(self):
        h = Harness(transport="gbn")
        h.deliver(0)
        h.deliver(0)
        assert h.metrics.flows[h.flow].receiver_duplicates == 1


class TestIdeal:
    def test_never_nacks(self):
        h = Harness(transport="ideal")
        h.deliver(0)
        h.deliver(5)
        h.deliver(3)
        assert h.control_sent(PacketType.NACK) == []

    def test_ooo_accepted_and_healed(self):
        h = Harness(transport="ideal")
        for psn in (0, 2, 3, 1):
            h.deliver(psn)
        assert h.receiver.epsn == 4

    def test_receiver_classes_registered(self):
        from repro.rnic.reliability import (RECEIVER_CLASSES,
                                            MpRdmaReceiver)
        assert RECEIVER_CLASSES == {"nic_sr": NicSrReceiver,
                                    "gbn": GbnReceiver,
                                    "ideal": IdealReceiver,
                                    "mp_rdma": MpRdmaReceiver}


class TestNicDispatch:
    def test_unknown_transport_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Rnic(sim, 0, config=RnicConfig(), metrics=Metrics(sim),
                 rng=SimRng(0), cc_factory=lambda f: FixedRate(sim, 1e9),
                 transport="bogus")

    def test_loopback_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.nic.post_send(1, 100)  # nic id is 1; dst 1 = loopback

    def test_wrong_direction_qp_rejected(self):
        h = Harness()
        with pytest.raises(ValueError):
            h.nic.sender(FlowKey(5, 1))   # src != nic id
        with pytest.raises(ValueError):
            h.nic.receiver(FlowKey(1, 5))  # dst != nic id

    def test_stale_control_packet_ignored(self):
        from repro.net.packet import ack_packet
        h = Harness()
        # ACK for a QP that was never created: silently dropped.
        h.nic.receive(ack_packet(FlowKey(1, 0), 5), None)
