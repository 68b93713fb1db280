"""Unit tests for ThemisConfig sizing math."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.harness.collective_runner import EvalScale, fig5_config
from repro.harness.motivation import motivation_config
from repro.harness.network import Network
from repro.harness.tracing import build_traced_alltoall
from repro.net.packet import FlowKey
from repro.themis.config import ThemisConfig
from repro.themis.memory import MemoryParams, queue_entries
from repro.themis.ring_queue import psn_bits_for


def exact_entries(bandwidth_bps, rtt_ns, mtu_bytes, factor):
    """ceil(BW * RTT * F / MTU) in exact decimal arithmetic, floor 4."""
    bdp_bytes = (Fraction(repr(bandwidth_bps)) * rtt_ns
                 / 1_000_000_000 / 8)
    return max(4, math.ceil(bdp_bytes * Fraction(repr(factor))
                            / mtu_bytes))


def golden_fabrics():
    """The Themis fabrics the goldens build (tests/test_goldens.py)."""
    yield "traced", build_traced_alltoall(nodes=8, scheme="themis")[0]
    yield "fig1", Network(motivation_config(scheme="themis", seed=1))
    yield "fig5-smoke", Network(fig5_config(
        "themis", ti_us=10, td_us=4, seed=7,
        scale=EvalScale(ecn_kmin_bytes=1000, ecn_kmax_bytes=30_000)))


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

    def test_one_formula_with_table1(self):
        """The simulator's ring sizing is Table 1's function: they agree
        on Table 1's reference values and on every golden fabric."""
        ref = MemoryParams()
        assert ThemisConfig().queue_entries(
            ref.bandwidth_bps, int(ref.rtt_last_s * 1e9),
            ref.mtu_bytes) == queue_entries(ref) == 100
        sizes = {}
        for name, net in golden_fabrics():
            spec = net.config.topology
            bandwidth = spec.link_bandwidth_bps
            rtt_ns = (2 * spec.link_delay_ns + int(
                net.config.ecn.kmax_bytes * 8 * 1e9 / bandwidth))
            mtu = net.nics[0].config.mtu_bytes
            factor = net.config.themis.queue_capacity_factor
            got = net._queue_capacity_for(
                FlowKey(0, net.topology.num_nics - 1))
            assert got == max(4, queue_entries(MemoryParams(
                bandwidth_bps=bandwidth, rtt_last_s=rtt_ns / 1e9,
                mtu_bytes=mtu, expansion_factor=factor)))
            assert got == exact_entries(bandwidth, rtt_ns, mtu, factor)
            sizes[name] = got
        assert sizes == {"traced": 425, "fig1": 425, "fig5-smoke": 37}

    @settings(max_examples=300, deadline=None)
    @given(bandwidth=st.sampled_from([10e9, 25e9, 100e9, 200e9, 400e9]),
           rtt_ns=st.integers(1, 200_000)
           | st.integers(1, 200).map(lambda us: us * 1000),
           mtu=st.sampled_from([256, 1000, 1024, 1500, 4096, 9000]),
           factor=st.sampled_from([1.1, 1.25, 1.5, 2.0, 3.0]))
    def test_whole_quotients_gain_no_entry(self, bandwidth, rtt_ns, mtu,
                                           factor):
        """RTT in float seconds is inexact; the ring size is still the
        exact ceiling."""
        assert ThemisConfig(queue_capacity_factor=factor).queue_entries(
            bandwidth, rtt_ns, mtu) == exact_entries(bandwidth, rtt_ns,
                                                     mtu, factor)

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
