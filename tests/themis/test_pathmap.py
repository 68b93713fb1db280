"""Tests for the PathMap construction on a fat-tree (Fig. 3 mechanism)."""

import pytest

from repro.net.packet import FlowKey
from repro.net.topology import fat_tree, leaf_spine
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.switch import Switch
from repro.net.node import Device
from repro.themis.memory import (PATHMAP_ENTRY_BYTES, MemoryParams,
                                 memory_overhead)
from repro.themis.pathmap import apply_pathmap, build_pathmap, trace_path


def build_fat_tree(k=4):
    sim = Simulator()

    def factory(name):
        return Switch(sim, name, lb=EcmpLB(), buffer=SharedBuffer(10**6),
                      ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))

    topo = fat_tree(sim, factory, k=k, link_bandwidth_bps=1e9)
    for nic_id in range(topo.num_nics):
        topo.attach_nic(nic_id, Device(sim, f"nic{nic_id}"))
    topo.build_routes()
    return topo


@pytest.fixture(scope="module")
def ft_topology():
    return build_fat_tree()


class TestTracePath:
    def test_deterministic(self, ft_topology):
        flow = FlowKey(0, 15)
        assert trace_path(ft_topology, flow, 700) \
            == trace_path(ft_topology, flow, 700)

    def test_starts_at_source_edge(self, ft_topology):
        flow = FlowKey(0, 15)
        path = trace_path(ft_topology, flow, 700)
        assert path[0] == ft_topology.nic_tor[0].name

    def test_cross_pod_path_has_five_switches(self, ft_topology):
        # edge -> agg -> core -> agg -> edge
        path = trace_path(ft_topology, FlowKey(0, 15), 700)
        assert len(path) == 5

    def test_missing_route_raises(self, ft_topology):
        with pytest.raises(LookupError):
            trace_path(ft_topology, FlowKey(0, 999), 700)


class TestBuildPathmap:
    def test_covers_all_cross_pod_paths(self, ft_topology):
        flow = FlowKey(0, 15)
        n = ft_topology.path_count(0, 15)
        assert n == 4
        deltas = build_pathmap(ft_topology, flow, 700, n)
        assert len(deltas) == n
        assert deltas[0] == 0
        paths = {trace_path(ft_topology, flow, 700 ^ d) for d in deltas}
        assert len(paths) == n

    def test_residue_class_determinism(self, ft_topology):
        """The end-to-end guarantee Themis-D relies on: equal PSN mod N
        => identical fabric path; different residue => different path."""
        flow = FlowKey(0, 15)
        n = ft_topology.path_count(0, 15)
        deltas = build_pathmap(ft_topology, flow, 700, n)
        paths_by_residue = {}
        for psn in range(32):
            sport = apply_pathmap(deltas, 700, psn)
            paths_by_residue.setdefault(psn % n, set()).add(
                trace_path(ft_topology, flow, sport))
        assert all(len(paths) == 1 for paths in paths_by_residue.values())
        distinct = {next(iter(p)) for p in paths_by_residue.values()}
        assert len(distinct) == n

    def test_same_pod_smaller_pathset(self, ft_topology):
        flow = FlowKey(0, 2)  # same pod, different edge switch
        n = ft_topology.path_count(0, 2)
        assert n == 2
        deltas = build_pathmap(ft_topology, flow, 900, n)
        paths = {trace_path(ft_topology, flow, 900 ^ d) for d in deltas}
        assert len(paths) == 2

    def test_impossible_count_raises(self, ft_topology):
        with pytest.raises(ValueError):
            build_pathmap(ft_topology, FlowKey(0, 15), 700, 99)

    def test_zero_paths_rejected(self, ft_topology):
        with pytest.raises(ValueError):
            build_pathmap(ft_topology, FlowKey(0, 15), 700, 0)

    def test_memory_model(self):
        """Each PathMap entry is one 16-bit sport delta (§4)."""
        assert PATHMAP_ENTRY_BYTES == 2
        assert memory_overhead(MemoryParams(n_paths=256)).pathmap_bytes \
            == 512


class TestLeafSpinePathmap:
    def test_leaf_spine_paths_reachable_via_sport(self):
        sim = Simulator()

        def factory(name):
            return Switch(sim, name, lb=EcmpLB(),
                          buffer=SharedBuffer(10**6),
                          ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))

        topo = leaf_spine(sim, factory, num_tors=2, num_spines=4,
                          nics_per_tor=1, link_bandwidth_bps=1e9)
        for nic_id in range(2):
            topo.attach_nic(nic_id, Device(sim, f"nic{nic_id}"))
        topo.build_routes()
        deltas = build_pathmap(topo, FlowKey(0, 1), 1234, 4)
        paths = {trace_path(topo, FlowKey(0, 1), 1234 ^ d)
                 for d in deltas}
        assert len(paths) == 4
