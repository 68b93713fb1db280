"""Tests for collective workloads over a small fabric."""

import pytest

from repro.collectives import (AllToAll, COLLECTIVE_CLASSES, RingAllgather,
                               RingAllreduce, RingReduceScatter,
                               cross_rack_groups, interleaved_ring_groups)
from repro.harness.network import Network, NetworkConfig, TopologySpec


def make_network(scheme="ecmp", num_tors=2, num_spines=2, nics_per_tor=2):
    topo = TopologySpec(kind="leaf_spine", num_tors=num_tors,
                        num_spines=num_spines, nics_per_tor=nics_per_tor,
                        link_bandwidth_bps=25e9)
    return Network(NetworkConfig(topology=topo, scheme=scheme))


class TestGroupLayouts:
    def test_cross_rack_groups_one_nic_per_rack(self):
        groups = cross_rack_groups(num_tors=4, nics_per_tor=3)
        assert len(groups) == 3
        assert groups[0] == [0, 3, 6, 9]
        assert groups[2] == [2, 5, 8, 11]
        # Every member of a group lives under a different ToR.
        for group in groups:
            assert len({nic // 3 for nic in group}) == 4

    def test_interleaved_ring_groups(self):
        groups = interleaved_ring_groups(8, 2)
        assert groups == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_interleaved_requires_divisibility(self):
        with pytest.raises(ValueError):
            interleaved_ring_groups(7, 2)


class TestValidation:
    def test_needs_two_members(self):
        net = make_network()
        with pytest.raises(ValueError):
            RingAllreduce(net, [0], 1000)

    def test_rejects_duplicates(self):
        net = make_network()
        with pytest.raises(ValueError):
            RingAllreduce(net, [0, 0, 1], 3000)

    def test_message_must_chunk(self):
        net = make_network()
        with pytest.raises(ValueError):
            RingAllreduce(net, [0, 1, 2], 2)

    def test_double_start_rejected(self):
        net = make_network()
        coll = RingAllreduce(net, [0, 2], 10_000)
        coll.start()
        with pytest.raises(RuntimeError):
            coll.start()

    def test_completion_time_before_done_raises(self):
        net = make_network()
        coll = RingAllreduce(net, [0, 2], 10_000)
        with pytest.raises(RuntimeError):
            coll.completion_time_ns()


class TestRingCollectives:
    @pytest.mark.parametrize("cls,steps_of_n", [
        (RingAllreduce, lambda n: 2 * (n - 1)),
        (RingAllgather, lambda n: n - 1),
        (RingReduceScatter, lambda n: n - 1),
    ])
    def test_step_counts(self, cls, steps_of_n):
        net = make_network(nics_per_tor=2, num_tors=2)
        coll = cls(net, [0, 1, 2, 3], 100_000)
        assert coll.num_steps == steps_of_n(4)

    def test_allreduce_completes_cross_rack(self):
        net = make_network(num_tors=4, nics_per_tor=1, num_spines=2)
        coll = RingAllreduce(net, [0, 1, 2, 3], 400_000)
        coll.start()
        net.run(until_ns=10_000_000_000)
        assert coll.complete
        assert coll.completion_time_ns() > 0

    def test_allreduce_moves_expected_volume(self):
        net = make_network(num_tors=4, nics_per_tor=1, num_spines=2)
        total = 400_000
        coll = RingAllreduce(net, [0, 1, 2, 3], total)
        coll.start()
        net.run(until_ns=10_000_000_000)
        # Each node sends 2*(n-1) chunks of total/n.
        per_node = 2 * 3 * (total // 4)
        posted = sum(f.bytes_posted for f in net.metrics.flows.values())
        assert posted == per_node * 4

    def test_steps_are_dependency_ordered(self):
        """A node never has more than one outstanding send message."""
        net = make_network(num_tors=2, nics_per_tor=1)
        coll = RingAllgather(net, [0, 1], 100_000)
        coll.start()
        backlogs = []

        def sample(time, seq, callback):    # between any two events
            backlogs.extend(len(qp._messages) - qp._next_completion
                            for nic in net.nics
                            for qp in nic.senders.values())

        net.sim.trace = sample
        net.run()
        assert coll.complete
        assert max(backlogs) <= 1

    def test_all_schemes_complete(self):
        for scheme in ("ecmp", "rps", "ar", "themis"):
            net = make_network(scheme=scheme, num_tors=4, nics_per_tor=1,
                               num_spines=2)
            coll = RingAllreduce(net, [0, 1, 2, 3], 200_000)
            coll.start()
            net.run(until_ns=20_000_000_000)
            assert coll.complete, scheme


class TestAllToAll:
    def test_completes(self):
        net = make_network(num_tors=4, nics_per_tor=1, num_spines=2)
        coll = AllToAll(net, [0, 1, 2, 3], 400_000)
        coll.start()
        net.run(until_ns=10_000_000_000)
        assert coll.complete

    def test_pairwise_qps(self):
        net = make_network(num_tors=4, nics_per_tor=1, num_spines=2)
        coll = AllToAll(net, [0, 1, 2, 3], 400_000)
        coll.start()
        net.run(until_ns=10_000_000_000)
        # n*(n-1) directed pairs, each its own QP flow.
        assert len(net.metrics.flows) == 12

    def test_volume(self):
        net = make_network(num_tors=4, nics_per_tor=1, num_spines=2)
        total = 400_000
        coll = AllToAll(net, [0, 1, 2, 3], total)
        coll.start()
        net.run(until_ns=10_000_000_000)
        posted = sum(f.bytes_posted for f in net.metrics.flows.values())
        assert posted == 12 * (total // 4)

    def test_registry(self):
        assert set(COLLECTIVE_CLASSES) == {"allreduce", "allgather",
                                           "reducescatter", "alltoall",
                                           "hd_allreduce"}
