"""Integration tests for the Network assembly and scheme wiring."""

import pytest

from repro.harness.network import (Network, NetworkConfig, SCHEMES,
                                   TopologySpec, TRANSPORTS)
from repro.themis.dest import ThemisDest
from repro.themis.source import ThemisSource

SMALL = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                     nics_per_tor=2, link_bandwidth_bps=25e9)


class TestConstruction:
    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(scheme="wat")

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(transport="wat")

    def test_nic_count_matches_topology(self):
        net = Network(NetworkConfig(topology=SMALL))
        assert len(net.nics) == 4

    def test_themis_middleware_only_on_tors(self):
        net = Network(NetworkConfig(topology=SMALL, scheme="themis"))
        for tor in net.topology.tors:
            kinds = {type(m) for m in tor.middleware}
            assert kinds == {ThemisDest, ThemisSource}
        spines = [s for s in net.topology.switches
                  if s not in net.topology.tors]
        assert all(not s.middleware for s in spines)

    def test_non_themis_has_no_middleware(self):
        net = Network(NetworkConfig(topology=SMALL, scheme="ecmp"))
        assert all(not s.middleware for s in net.topology.switches)

    def test_fat_tree_themis_uses_pathmap_mode(self):
        topo = TopologySpec(kind="fat_tree", fat_tree_k=4,
                            link_bandwidth_bps=25e9)
        net = Network(NetworkConfig(topology=topo, scheme="themis"))
        assert net.sprays_by_pathmap
        sources = [m for tor in net.topology.tors for m in tor.middleware
                   if isinstance(m, ThemisSource)]
        assert sources and all(s.pathmap_provider is not None
                               for s in sources)

    def test_leaf_spine_themis_picks_uplinks_directly(self):
        net = Network(NetworkConfig(topology=SMALL, scheme="themis"))
        assert not net.sprays_by_pathmap
        assert all(m.pathmap_provider is None
                   for tor in net.topology.tors for m in tor.middleware
                   if isinstance(m, ThemisSource))


class TestEndToEnd:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cross_rack_message_completes(self, scheme):
        net = Network(NetworkConfig(topology=SMALL, scheme=scheme))
        done = {"snd": False, "rcv": False}
        net.nics[0].post_send(2, 200_000,
                              on_done=lambda: done.update(snd=True))
        net.nics[2].expect_message(
            0, 200_000, on_done=lambda: done.update(rcv=True))
        net.run(until_ns=5_000_000_000)
        assert done == {"snd": True, "rcv": True}

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_transports_complete(self, transport):
        net = Network(NetworkConfig(topology=SMALL, transport=transport))
        net.post_message(0, 2, 200_000)
        net.run(until_ns=5_000_000_000)
        assert net.metrics.all_flows_done()

    def test_intra_rack_message(self):
        net = Network(NetworkConfig(topology=SMALL, scheme="themis"))
        net.post_message(0, 1, 100_000)
        net.run(until_ns=5_000_000_000)
        assert net.metrics.all_flows_done()

    def test_bidirectional_traffic(self):
        net = Network(NetworkConfig(topology=SMALL))
        net.post_message(0, 2, 100_000)
        net.post_message(2, 0, 100_000)
        net.run(until_ns=5_000_000_000)
        assert net.metrics.all_flows_done()

    def test_multiple_qps_between_same_pair(self):
        net = Network(NetworkConfig(topology=SMALL))
        net.post_message(0, 2, 50_000, qp=0)
        net.post_message(0, 2, 50_000, qp=1)
        net.run(until_ns=5_000_000_000)
        assert len(net.metrics.flows) == 2
        assert net.metrics.all_flows_done()

    def test_determinism_same_seed(self):
        def run_once():
            net = Network(NetworkConfig(topology=SMALL, scheme="rps",
                                        seed=7))
            net.post_message(0, 2, 300_000)
            net.post_message(1, 3, 300_000)
            net.run(until_ns=5_000_000_000)
            return (net.now_ns, net.metrics.data_packets_sent,
                    net.metrics.nacks_generated)

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_once(seed):
            net = Network(NetworkConfig(topology=SMALL, scheme="rps",
                                        seed=seed))
            for src, dst in ((0, 2), (1, 3), (2, 0), (3, 1)):
                net.post_message(src, dst, 300_000)
            net.run(until_ns=5_000_000_000)
            return net.metrics.summary()

        # Spray choices differ; some counter must differ.
        assert run_once(1) != run_once(2)


class TestInvariants:
    def _loaded_network(self, scheme):
        net = Network(NetworkConfig(topology=SMALL, scheme=scheme, seed=5))
        for src, dst in ((0, 2), (1, 3), (2, 1), (3, 0)):
            net.post_message(src, dst, 400_000)
        net.run(until_ns=10_000_000_000)
        return net

    @pytest.mark.parametrize("scheme", ["ecmp", "rps", "ar", "themis"])
    def test_all_posted_bytes_complete(self, scheme):
        net = self._loaded_network(scheme)
        assert net.metrics.all_flows_done()
        for stats in net.metrics.flows.values():
            assert stats.receiver_done_ns is not None
            assert stats.sender_done_ns is not None

    def test_themis_nack_accounting_balances(self):
        net = self._loaded_network("themis")
        themis = net.metrics.themis
        assert themis.nacks_inspected \
            == themis.nacks_blocked + themis.nacks_forwarded

    def test_no_buffer_leak(self):
        net = self._loaded_network("rps")
        for switch in net.topology.switches:
            assert switch.buffer.used_bytes == 0

    def test_ideal_transport_no_nacks(self):
        net = Network(NetworkConfig(topology=SMALL, transport="ideal",
                                    scheme="rps"))
        for src, dst in ((0, 2), (1, 3)):
            net.post_message(src, dst, 400_000)
        net.run(until_ns=10_000_000_000)
        assert net.metrics.nacks_generated == 0
        assert net.metrics.all_flows_done()


class TestOnIdle:
    def test_fires_once_when_every_message_is_delivered_and_acked(self):
        """A ring allreduce posts its sends step by step from completion
        callbacks; ``on_idle`` must wait for the last step's ACKs, not
        fire in a gap between steps."""
        from repro.collectives import RingAllreduce

        net = Network(NetworkConfig(topology=SMALL, scheme="rps"))
        coll = RingAllreduce(net, [0, 1, 2, 3], 200_000)
        fired = []

        def on_idle():
            fired.append(net.now_ns)
            assert coll.complete
            assert all(qp.complete for nic in net.nics
                       for qp in nic.senders.values())
            net.stop()

        net.metrics.on_idle = on_idle
        coll.start()
        assert net.metrics.open_messages > 0
        net.run(until_ns=10_000_000_000)
        assert len(fired) == 1 and net.metrics.open_messages == 0
        # The fabric stopped there: nothing ran on to the deadline.
        assert fired[0] == max(s.sender_done_ns
                               for s in net.metrics.flows.values())
