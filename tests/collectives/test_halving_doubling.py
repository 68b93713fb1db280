"""Tests for halving-doubling allreduce."""

import pytest

from repro.collectives.halving_doubling import HalvingDoublingAllreduce
from repro.harness.network import Network, NetworkConfig, TopologySpec


def make_network(num_tors=4, nics_per_tor=1, num_spines=2,
                 scheme="ecmp"):
    topo = TopologySpec(kind="leaf_spine", num_tors=num_tors,
                        num_spines=num_spines, nics_per_tor=nics_per_tor,
                        link_bandwidth_bps=25e9)
    return Network(NetworkConfig(topology=topo, scheme=scheme))


class TestSchedule:
    def test_power_of_two_required(self):
        net = make_network(num_tors=3)
        with pytest.raises(ValueError):
            HalvingDoublingAllreduce(net, [0, 1, 2], 30_000)

    def test_step_count(self):
        net = make_network(num_tors=8)
        coll = HalvingDoublingAllreduce(net, list(range(8)), 80_000)
        assert coll.num_steps == 6  # 2 * log2(8)

    def test_partner_distances_butterfly(self):
        net = make_network(num_tors=8)
        coll = HalvingDoublingAllreduce(net, list(range(8)), 80_000)
        # RS phase: distance 4, 2, 1; AG phase: 1, 2, 4.
        assert [coll.partner(0, s) for s in range(6)] == [4, 2, 1, 1, 2, 4]

    def test_partnering_is_symmetric(self):
        net = make_network(num_tors=8)
        coll = HalvingDoublingAllreduce(net, list(range(8)), 80_000)
        for step in range(coll.num_steps):
            for pos in range(8):
                peer = coll.partner(pos, step)
                assert coll.partner(peer, step) == pos

    def test_message_sizes_halve_then_double(self):
        net = make_network(num_tors=8)
        coll = HalvingDoublingAllreduce(net, list(range(8)), 80_000)
        sizes = [coll.exchange(0, s)[2] for s in range(coll.num_steps)]
        assert sizes == [40_000, 20_000, 10_000, 10_000, 20_000, 40_000]


class TestExecution:
    @pytest.mark.parametrize("scheme", ["ecmp", "rps", "themis"])
    def test_completes(self, scheme):
        net = make_network(num_tors=4, scheme=scheme)
        coll = HalvingDoublingAllreduce(net, [0, 1, 2, 3], 200_000)
        coll.start()
        net.run(until_ns=20_000_000_000)
        assert coll.complete
        assert coll.completion_time_ns() > 0

    def test_total_volume(self):
        """Each node moves S/2 + S/4 + ... + S/n twice ≈ 2S(n-1)/n."""
        net = make_network(num_tors=4)
        total = 400_000
        coll = HalvingDoublingAllreduce(net, [0, 1, 2, 3], total)
        coll.start()
        net.run(until_ns=20_000_000_000)
        posted = sum(f.bytes_posted for f in net.metrics.flows.values())
        expected_per_node = 2 * (total // 2 + total // 4)
        assert posted == 4 * expected_per_node

    def test_eight_members_across_two_racks(self):
        net = make_network(num_tors=4, nics_per_tor=2)
        coll = HalvingDoublingAllreduce(net, list(range(8)), 400_000)
        coll.start()
        net.run(until_ns=20_000_000_000)
        assert coll.complete

    def test_registered_in_collective_classes(self):
        from repro.collectives import COLLECTIVE_CLASSES
        assert COLLECTIVE_CLASSES["hd_allreduce"] \
            is HalvingDoublingAllreduce
