"""Unit tests for topology builders and route computation."""

import pytest

from repro.net.node import Device
from repro.net.topology import Topology, fat_tree, leaf_spine
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.switch import Switch


def factory(sim):
    def make(name):
        return Switch(sim, name, lb=EcmpLB(), buffer=SharedBuffer(10**6),
                      ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
    return make


def attach_all(sim, topo):
    nics = []
    for nic_id in range(topo.num_nics):
        nic = Device(sim, f"nic{nic_id}")
        topo.attach_nic(nic_id, nic)
        nics.append(nic)
    topo.build_routes()
    return nics


class TestLeafSpine:
    def test_dimensions(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=4, num_spines=2,
                          nics_per_tor=3, link_bandwidth_bps=1e9)
        assert len(topo.switches) == 6
        assert len(topo.tors) == 4
        assert topo.num_nics == 12

    def test_nic_numbering_by_rack(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=3, num_spines=2,
                          nics_per_tor=4, link_bandwidth_bps=1e9)
        for nic_id, tor in topo.nic_tor.items():
            assert tor.name == f"tor{nic_id // 4}"

    def test_routes_local_nic_single_down_port(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=2, num_spines=4,
                          nics_per_tor=2, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        tor0 = topo.tors[0]
        assert len(tor0.routes[0]) == 1
        assert tor0.routes[0][0].peer.name == "nic0"

    def test_routes_remote_nic_all_uplinks(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=2, num_spines=4,
                          nics_per_tor=2, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        tor0 = topo.tors[0]
        candidates = tor0.routes[2]  # NIC 2 lives under tor1
        assert len(candidates) == 4
        assert {p.peer.name for p in candidates} \
            == {f"spine{i}" for i in range(4)}

    def test_uplink_order_matches_spine_index(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=2, num_spines=4,
                          nics_per_tor=1, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        candidates = topo.tors[0].routes[1]
        assert [p.peer.name for p in candidates] \
            == [f"spine{i}" for i in range(4)]

    def test_spine_routes_are_deterministic_single_hop(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=3, num_spines=2,
                          nics_per_tor=1, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        spine = next(s for s in topo.switches if s.name == "spine0")
        for nic_id in range(3):
            assert len(spine.routes[nic_id]) == 1

    def test_path_count_cross_rack(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=2, num_spines=8,
                          nics_per_tor=2, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        assert topo.path_count(0, 2) == 8
        assert topo.equal_paths(0, 2) == 8

    def test_path_count_intra_rack(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=2, num_spines=8,
                          nics_per_tor=2, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        assert topo.path_count(0, 1) == 1
        assert topo.equal_paths(0, 1) == 1

    def test_build_routes_requires_attached_nics(self):
        sim = Simulator()
        topo = leaf_spine(sim, factory(sim), num_tors=2, num_spines=2,
                          nics_per_tor=1, link_bandwidth_bps=1e9)
        with pytest.raises(RuntimeError):
            topo.build_routes()

    def test_dimension_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            leaf_spine(sim, factory(sim), num_tors=0, num_spines=1,
                       nics_per_tor=1, link_bandwidth_bps=1e9)

    def test_duplicate_nic_slot_rejected(self):
        sim = Simulator()
        topo = Topology(sim, 1e9, 100)
        sw = topo.add_switch(factory(sim)("t"), is_tor=True)
        topo.register_nic_slot(0, sw)
        with pytest.raises(ValueError):
            topo.register_nic_slot(0, sw)


class TestFatTree:
    def test_k4_dimensions(self):
        sim = Simulator()
        topo = fat_tree(sim, factory(sim), k=4, link_bandwidth_bps=1e9)
        # k=4: 4 cores, 8 aggs, 8 edges, 16 hosts
        assert len(topo.switches) == 4 + 8 + 8
        assert len(topo.tors) == 8
        assert topo.num_nics == 16

    def test_k_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            fat_tree(sim, factory(sim), k=3, link_bandwidth_bps=1e9)

    def test_cross_pod_path_count(self):
        sim = Simulator()
        topo = fat_tree(sim, factory(sim), k=4, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        # Cross-pod: (k/2)^2 = 4 shortest paths.
        assert topo.path_count(0, 15) == 4
        # Same pod, different edge: k/2 = 2 paths.
        assert topo.path_count(0, 2) == 2
        # Same edge: 1.
        assert topo.path_count(0, 1) == 1

    def test_cross_pod_first_hop_fanout(self):
        sim = Simulator()
        topo = fat_tree(sim, factory(sim), k=4, link_bandwidth_bps=1e9)
        attach_all(sim, topo)
        assert topo.equal_paths(0, 15) == 2  # k/2 aggs at the edge

    def test_forwarding_reaches_destination(self):
        """End-to-end: inject at edge switch, packet reaches remote NIC."""
        from repro.net.packet import FlowKey, data_packet

        class Recorder(Device):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.got = []

            def receive(self, packet, in_port):
                self.got.append(packet)

        sim = Simulator()
        topo = fat_tree(sim, factory(sim), k=4, link_bandwidth_bps=1e9)
        nics = []
        for nic_id in range(topo.num_nics):
            nic = Recorder(sim, f"nic{nic_id}")
            topo.attach_nic(nic_id, nic)
            nics.append(nic)
        topo.build_routes()
        src_tor = topo.nic_tor[0]
        src_tor.receive(data_packet(FlowKey(0, 13), 0, 100), None)
        sim.run()
        assert len(nics[13].got) == 1
