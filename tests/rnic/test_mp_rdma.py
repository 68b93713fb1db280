"""Tests for the MPRDMA-style transport (rich NACKs + sender filtering)."""

from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.collectives.group import interleaved_ring_groups
from repro.harness.motivation import motivation_config
from repro.harness.network import Network
from repro.net.packet import FlowKey, PacketType


class TestRichNacks:
    def test_nack_carries_trigger_psn(self):
        from tests.rnic.test_receivers import Harness
        h = Harness(transport="mp_rdma")
        h.deliver(0)
        h.deliver(3)   # trigger
        nacks = h.control_sent(PacketType.NACK)
        assert len(nacks) == 1
        assert nacks[0].epsn == 1
        assert nacks[0].psn == 3      # the trigger rides along

    def test_commodity_nack_does_not(self):
        from tests.rnic.test_receivers import Harness
        h = Harness(transport="nic_sr")
        h.deliver(0)
        h.deliver(3)
        assert h.control_sent(PacketType.NACK)[0].psn == 0


class TestSenderFiltering:
    """A filtered NACK is counted in ``stats.nacks_received`` like any
    other, but it queues no retransmission and cuts no DCQCN rate."""

    def _sender(self, make_nic_pair, filter_n):
        def dcqcn(flow):
            return Dcqcn(nic_pair.sim, 100e9, DcqcnConfig())

        nic_pair = make_nic_pair(cc_factory=dcqcn)
        nic0 = nic_pair.nics[0]
        nic0.post_send(1, 500_000)
        nic_pair.nics[1].expect_message(0, 500_000)
        sender = nic0.senders[FlowKey(0, 1)]
        sender.nack_filter_n_paths = filter_n
        nic_pair.run(until=5_000)
        return nic_pair, sender

    @staticmethod
    def _nack(sender, epsn, trigger_psn=None):
        """Deliver one NACK; returns (received, retx queued, rate cut)."""
        received = sender.stats.nacks_received
        rate = sender.cc.rate_bps
        sender.on_nack(epsn, trigger_psn=trigger_psn)
        return (sender.stats.nacks_received - received,
                epsn in sender._retx_set, sender.cc.rate_bps < rate)

    def test_invalid_nack_filtered(self, make_nic_pair):
        nic_pair, sender = self._sender(make_nic_pair, filter_n=2)
        target = sender.snd_una + 2
        retx_before = sender.stats.retransmissions
        # trigger on a different path (odd vs even residue)
        assert self._nack(sender, target, target + 1) == (1, False, False)
        nic_pair.run()
        assert sender.stats.retransmissions == retx_before
        assert sender.complete

    def test_valid_nack_retransmits(self, make_nic_pair):
        nic_pair, sender = self._sender(make_nic_pair, filter_n=2)
        target = sender.snd_una + 2
        # same residue
        assert self._nack(sender, target, target + 2) == (1, True, True)
        nic_pair.run()
        assert sender.stats.retransmissions >= 1

    def test_no_trigger_means_no_filtering(self, make_nic_pair):
        _, sender = self._sender(make_nic_pair, filter_n=2)
        target = sender.snd_una + 2
        # commodity NACK: must act on it
        assert self._nack(sender, target) == (1, True, True)

    def test_filtered_nack_still_advances_cumulative(self, make_nic_pair):
        _, sender = self._sender(make_nic_pair, filter_n=2)
        target = sender.snd_una + 4
        sender.on_nack(target, trigger_psn=target + 1)
        assert sender.snd_una >= target


class TestEndToEnd:
    def test_mp_rdma_with_spraying_avoids_spurious_damage(self):
        """Sender-side Eq. 3 filtering over deterministic spraying gets
        close to Themis without any switch logic — the transport the
        paper says commodity RNICs cannot run."""
        def run(transport, scheme):
            net = Network(motivation_config(scheme=scheme,
                                            transport=transport, seed=4))
            for members in interleaved_ring_groups(8, 2):
                for i, node in enumerate(members):
                    net.post_message(node,
                                     members[(i + 1) % len(members)],
                                     1_000_000)
            net.run(until_ns=60_000_000_000)
            assert net.metrics.all_flows_done()
            nacks = sum(f.nacks_received
                        for f in net.metrics.flows.values())
            out = {"retx": net.metrics.spurious_ratio,
                   "goodput": net.metrics.mean_goodput_gbps(),
                   "nacks": nacks}
            net.stop()
            return out

        commodity = run("nic_sr", "themis_noval")
        mp = run("mp_rdma", "themis_noval")
        # NACKs reach the MPRDMA senders, and the filter keeps them from
        # retransmitting.
        assert mp["nacks"] > 0
        assert mp["retx"] < 0.5 * max(commodity["retx"], 0.002)
        assert mp["goodput"] >= commodity["goodput"]
