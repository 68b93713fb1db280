"""Tests for Network's internal sizing/wiring helpers."""

import pytest

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.packet import FlowKey
from repro.switch.ecn import EcnConfig
from repro.themis.config import ThemisConfig


def themis_net(**overrides):
    topo = overrides.pop("topology", TopologySpec(
        kind="leaf_spine", num_tors=2, num_spines=4, nics_per_tor=2,
        link_bandwidth_bps=25e9))
    return Network(NetworkConfig(topology=topo, scheme="themis",
                                 **overrides))


class TestQueueCapacitySizing:
    def test_capacity_covers_bdp_plus_ecn_queueing(self):
        net = themis_net(ecn=EcnConfig(kmin_bytes=15_000,
                                       kmax_bytes=60_000))
        cap = net._queue_capacity_for(FlowKey(0, 2))
        # RTT = 2 us prop + 60 KB / 25 Gbps = 2 us + 19.2 us -> BDP
        # ~66 KB -> x1.5 / 1500 B MTU ~= 67 entries.
        assert 50 <= cap <= 80

    def test_override_respected(self):
        net = themis_net(themis=ThemisConfig(queue_entries_override=9))
        assert net._queue_capacity_for(FlowKey(0, 2)) == 9

    def test_capacity_scales_with_ecn_depth(self):
        shallow = themis_net(ecn=EcnConfig(kmin_bytes=5_000,
                                           kmax_bytes=20_000))
        deep = themis_net(ecn=EcnConfig(kmin_bytes=50_000,
                                        kmax_bytes=200_000))
        assert deep._queue_capacity_for(FlowKey(0, 2)) \
            > shallow._queue_capacity_for(FlowKey(0, 2))


class TestNPathsResolution:
    def test_leaf_spine_direct_mode_uses_uplink_count(self):
        net = themis_net()
        assert net._n_paths_for(FlowKey(0, 2)) == 4

    def test_fat_tree_pathmap_mode_uses_full_path_count(self):
        topo = TopologySpec(kind="fat_tree", fat_tree_k=4,
                            link_bandwidth_bps=25e9)
        net = themis_net(topology=topo)
        assert net.sprays_by_pathmap
        assert net._n_paths_for(FlowKey(0, 15)) == 4   # (k/2)^2
        assert net._n_paths_for(FlowKey(0, 2)) == 2    # same pod


class TestSchemeLbWiring:
    @pytest.mark.parametrize("scheme,lb_name", [
        ("ecmp", "ecmp"), ("rps", "rps"), ("ar", "ar"),
        ("flowlet", "flowlet"), ("themis", "ecmp"),
        ("conweave_spray", "rps"),
    ])
    def test_lb_selected_per_scheme(self, scheme, lb_name):
        topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                            nics_per_tor=1, link_bandwidth_bps=25e9)
        net = Network(NetworkConfig(topology=topo, scheme=scheme))
        assert net.topology.switches[0].lb.name == lb_name

    def test_mp_rdma_filter_hook_installed(self):
        topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=4,
                            nics_per_tor=1, link_bandwidth_bps=25e9)
        net = Network(NetworkConfig(topology=topo,
                                    scheme="themis_noval",
                                    transport="mp_rdma"))
        assert net.nics[0].nack_filter_paths is not None
        assert net.nics[0].nack_filter_paths(FlowKey(0, 1)) == 4

    def test_non_mp_rdma_has_no_filter(self):
        net = themis_net()
        assert net.nics[0].nack_filter_paths is None
