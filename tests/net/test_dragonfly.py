"""Tests for the dragonfly topology builder."""

import pytest

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.node import Device
from repro.net.topology import dragonfly
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.switch import Switch
from tests.faults.drive import fail_link


def factory(sim):
    def make(name):
        return Switch(sim, name, lb=EcmpLB(),
                      buffer=SharedBuffer(10**6),
                      ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
    return make


def build(groups=4, routers=2, hosts=1, global_links=2):
    sim = Simulator()
    topo = dragonfly(sim, factory(sim), groups=groups,
                     routers_per_group=routers, hosts_per_router=hosts,
                     global_links_per_router=global_links,
                     link_bandwidth_bps=25e9)
    return sim, topo


class TestDragonflyBuilder:
    def test_dimension_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            dragonfly(sim, factory(sim), groups=1, routers_per_group=2,
                      hosts_per_router=1, link_bandwidth_bps=25e9)
        with pytest.raises(ValueError):
            dragonfly(sim, factory(sim), groups=4, routers_per_group=0,
                      hosts_per_router=1, link_bandwidth_bps=25e9)
        # groups-1 = 3 > routers * global_links = 2: not wireable.
        with pytest.raises(ValueError):
            dragonfly(sim, factory(sim), groups=4, routers_per_group=2,
                      hosts_per_router=1, global_links_per_router=1,
                      link_bandwidth_bps=25e9)

    def test_switch_and_link_counts(self):
        g, r = 4, 2
        _, topo = build(groups=g, routers=r)
        assert len(topo.switches) == g * r
        # Every router hosts NICs, so every router is a ToR.
        assert len(topo.tors) == g * r
        intra = g * r * (r - 1) // 2
        inter = g * (g - 1) // 2
        fabric = [ln for ln in topo.links if ln.kind == "fabric"]
        assert len(fabric) == intra + inter

    def test_nic_numbering(self):
        _, topo = build(groups=4, routers=2, hosts=2)
        assert topo.num_nics == 16
        # NIC ids are sequential per router: NICs 0,1 under df0_0 ...
        assert topo.nic_tor[0].name == "df0_0"
        assert topo.nic_tor[1].name == "df0_0"
        assert topo.nic_tor[2].name == "df0_1"
        assert topo.nic_tor[15].name == "df3_1"

    def test_every_group_pair_has_a_global_link(self):
        g = 5
        _, topo = build(groups=g, routers=2, global_links=2)
        names = {(ln.a_name, ln.b_name) for ln in topo.links
                 if ln.kind == "fabric"}
        for x in range(g):
            for y in range(x + 1, g):
                crossing = [pair for pair in names
                            if pair[0].startswith(f"df{x}_")
                            and pair[1].startswith(f"df{y}_")]
                assert crossing, f"groups {x},{y} not connected"

    def test_routes_reach_every_nic(self):
        sim, topo = build()
        for nic_id in range(topo.num_nics):
            topo.attach_nic(nic_id, Device(sim, f"nic{nic_id}"))
        topo.build_routes()
        for switch in topo.switches:
            for nic_id in range(topo.num_nics):
                assert nic_id in switch.routes, \
                    f"{switch.name} has no route to NIC {nic_id}"


class TestDragonflyNetwork:
    def spec(self):
        return TopologySpec(kind="dragonfly", df_groups=4, df_routers=2,
                            df_hosts=1, df_global_links=2,
                            link_bandwidth_bps=25e9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="butterfly")

    def test_cross_group_messages_complete(self):
        net = Network(NetworkConfig(topology=self.spec(), scheme="ecmp"))
        # NIC 0 is in group 0; NIC 7 is in group 3.
        net.post_message(0, 7, 100_000)
        net.post_message(7, 0, 100_000)
        net.run(until_ns=50_000_000)
        assert net.metrics.all_flows_done()

    def test_spraying_schemes_complete_cross_group(self):
        for scheme in ("rps", "reps", "prime", "spritz", "sprinklers"):
            net = Network(NetworkConfig(topology=self.spec(),
                                        scheme=scheme, seed=5))
            net.post_message(0, 5, 60_000)
            net.run(until_ns=50_000_000)
            assert net.metrics.all_flows_done(), scheme

    def test_fail_global_link_reconverges(self):
        """Losing one global link must not partition the fabric: the
        intra-group mesh reroutes through a peer router's gateway."""
        net = Network(NetworkConfig(topology=self.spec(), scheme="reps"))
        fabric = [ln for ln in net.topology.links if ln.kind == "fabric"]
        # The df0 <-> df1 global link (palmtree: df0_0 <-> df1_0).
        target = next(ln for ln in fabric
                      if ln.a_name.startswith("df0_")
                      and ln.b_name.startswith("df1_"))
        fail_link(net, target.name)
        net.post_message(0, 3, 60_000)
        net.run(until_ns=50_000_000)
        assert net.metrics.all_flows_done()
