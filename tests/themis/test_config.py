"""Unit tests for ThemisConfig sizing math."""

from repro.themis.config import ThemisConfig
from repro.themis.ring_queue import psn_bits_for


class TestQueueEntries:
    def test_bdp_formula(self):
        cfg = ThemisConfig(queue_capacity_factor=1.5)
        # 400 Gbps, 2 us RTT, 1500 B MTU: BDP = 100 KB -> 100 entries
        # (matches the §4 reference computation).
        assert cfg.queue_entries(400e9, 2_000, 1500) == 100

    def test_override_wins(self):
        cfg = ThemisConfig(queue_entries_override=42)
        assert cfg.queue_entries(400e9, 2_000, 1500) == 42

    def test_minimum_floor(self):
        cfg = ThemisConfig()
        assert cfg.queue_entries(1e9, 10, 9000) >= 4

    def test_scales_with_factor(self):
        small = ThemisConfig(queue_capacity_factor=1.2)
        big = ThemisConfig(queue_capacity_factor=2.4)
        assert big.queue_entries(100e9, 4_000, 1500) \
            == 2 * small.queue_entries(100e9, 4_000, 1500)


class TestValidation:
    def test_defaults_match_paper(self):
        cfg = ThemisConfig()
        assert cfg.queue_capacity_factor == 1.5   # Table 1's F
        assert cfg.enable_validation and cfg.enable_compensation


class TestFatTreeIntegration:
    def test_themis_end_to_end_on_fat_tree(self):
        """PathMap-mode Themis carries cross-pod traffic to completion
        and the flow table records the full (k/2)^2 path count."""
        from repro.harness.network import (Network, NetworkConfig,
                                           TopologySpec)
        net = Network(NetworkConfig(
            topology=TopologySpec(kind="fat_tree", fat_tree_k=4,
                                  link_bandwidth_bps=25e9),
            scheme="themis", seed=2))
        net.post_message(0, 15, 300_000)   # cross-pod
        net.post_message(5, 10, 300_000)   # cross-pod
        net.run(until_ns=30_000_000_000)
        assert net.metrics.all_flows_done()
        entries = [e for tor in net.topology.tors
                   for mw in tor.middleware if hasattr(mw, "table")
                   for e in mw.table.entries()]
        assert entries
        assert all(e.n_paths == 4 for e in entries)
        assert all(e.queue.psn_bits
                   == psn_bits_for(e.queue.capacity, e.n_paths)
                   for e in entries)
