"""Unit tests for Themis-S: PSN-based spraying (Eq. 1) in both modes."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.net.node import Device
from repro.net.packet import FlowKey, ack_packet, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB, ecmp_index
from repro.switch.switch import Switch
from repro.themis.config import ThemisConfig
from repro.themis.pathmap import apply_pathmap, build_pathmap, trace_path
from repro.themis.source import ThemisSource
from tests.themis.test_pathmap import build_fat_tree

FLOW = FlowKey(0, 9)  # local NIC 0 -> remote NIC 9
FAT_TREE = build_fat_tree(k=4)


class SourceHarness:
    def __init__(self, n_paths=4, pathmap_provider=None):
        self.sim = Simulator()
        self.tor = Switch(self.sim, "stor", lb=EcmpLB(),
                          buffer=SharedBuffer(10**6),
                          ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
        self.tor.down_nics.add(0)
        sink = Device(self.sim, "fabric")
        self.uplinks = []
        for _ in range(n_paths):
            port = self.tor.add_port(1e9, 0)
            port.connect(sink)
            self.uplinks.append(port)
        self.tor.routes[9] = self.uplinks
        self.source = ThemisSource(ThemisConfig(),
                                   pathmap_provider=pathmap_provider)
        self.tor.add_middleware(self.source)

    def select(self, psn, sport=500):
        pkt = data_packet(FLOW, psn, 1000, udp_sport=sport)
        port = self.tor._select(pkt, self.uplinks)
        return pkt, port


class TestDirectMode:
    def test_eq1_mapping(self):
        """path_i = (PSN mod N + P_base) mod N, exactly."""
        h = SourceHarness(n_paths=4)
        probe = data_packet(FLOW, 0, 1000, udp_sport=500)
        base = ecmp_index(probe, 4, salt=h.tor.hash_salt,
                          rot=h.tor.hash_rot)
        for psn in range(16):
            pkt, port = h.select(psn)
            expected = (psn % 4 + base) % 4
            assert port is h.uplinks[expected]
            assert pkt.path_index == expected

    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([2, 3, 4, 8]),
           flows=st.lists(st.tuples(st.integers(10, 500),
                                    st.integers(0, 0xFFFF)),
                          min_size=1, max_size=4,
                          unique_by=lambda flow: flow[0]),
           start=st.integers(0, (1 << 24) - 17))
    def test_any_n_consecutive_psns_hit_each_uplink_once(self, n, flows,
                                                          start):
        """Eq. 1 under any N, any flow (hence any P_base) and any start
        PSN: every window of N consecutive PSNs covers the N uplinks."""
        h = SourceHarness(n_paths=n)
        for dst, sport in flows:
            flow = FlowKey(0, dst)
            picks = [h.uplinks.index(h.tor._select(
                data_packet(flow, psn, 1000, udp_sport=sport), h.uplinks))
                for psn in range(start, start + 2 * n)]
            for i in range(n + 1):
                assert sorted(picks[i:i + n]) == list(range(n))

    def test_same_residue_same_path(self):
        """The property Eq. 3 relies on."""
        h = SourceHarness(n_paths=4)
        _, port_a = h.select(3)
        _, port_b = h.select(7)
        _, port_c = h.select(11)
        assert port_a is port_b is port_c

    def test_uniform_coverage(self):
        h = SourceHarness(n_paths=4)
        ports = [h.select(psn)[1] for psn in range(8)]
        assert set(ports) == set(h.uplinks)

    def test_base_path_cached_per_flow(self):
        h = SourceHarness(n_paths=4)
        h.select(0)
        assert FLOW in h.source._base_cache

    def test_counts_sprayed_packets(self):
        h = SourceHarness(n_paths=4)
        sprayed = [h.select(psn)[0] for psn in range(5)]
        assert all(pkt.path_index is not None for pkt in sprayed)

    def test_control_packets_not_sprayed(self):
        h = SourceHarness(n_paths=4)
        ack = ack_packet(FlowKey(9, 0), 3)  # travels 0 -> 9 direction
        chosen = {h.tor._select(ack, h.uplinks) for _ in range(8)}
        assert len(chosen) == 1  # ECMP-pinned, untouched by Themis-S

    def test_non_local_source_not_sprayed(self):
        """Transit data (src NIC not under this ToR) is left to the LB."""
        h = SourceHarness(n_paths=4)
        pkt = data_packet(FlowKey(5, 9), 7, 1000, udp_sport=500)
        assert h.source.select_port(h.tor, pkt, h.uplinks) is None

    def test_local_destination_not_sprayed(self):
        h = SourceHarness(n_paths=4)
        h.tor.down_nics.add(9)  # now intra-rack
        pkt = data_packet(FLOW, 7, 1000, udp_sport=500)
        assert h.source.select_port(h.tor, pkt, h.uplinks) is None


class TestPathmapMode:
    """Built with a PathMap provider, Themis-S rewrites the header at
    ingress and leaves the uplink to the LB (Fig. 3)."""

    DELTAS = (0, 3, 5, 6)

    def harness(self):
        provided = []

        def provider(flow, sport):
            provided.append((flow, sport))
            return self.DELTAS

        return SourceHarness(n_paths=4, pathmap_provider=provider), provided

    def test_sport_rewritten_through_the_pathmap(self):
        h, provided = self.harness()
        for psn in range(8):
            pkt = data_packet(FLOW, psn, 1000, udp_sport=500)
            assert h.source.on_packet(h.tor, pkt, None)
            assert pkt.udp_sport == 500 ^ self.DELTAS[psn % 4]
            assert pkt.path_index == psn % 4
        assert provided == [(FLOW, 500)]    # one PathMap per flow, cached

    def test_select_port_defers_to_the_lb(self):
        h, _ = self.harness()
        pkt = data_packet(FLOW, 3, 1000, udp_sport=500)
        h.source.on_packet(h.tor, pkt, None)
        assert h.source.select_port(h.tor, pkt, h.uplinks) is None
        index = ecmp_index(pkt, 4, salt=h.tor.hash_salt, rot=h.tor.hash_rot)
        assert h.tor._select(pkt, h.uplinks) is h.uplinks[index]

    @settings(max_examples=40, deadline=None)
    @given(src=st.integers(0, 15), dst=st.integers(0, 15),
           sport=st.integers(0, 0xFFFF), start=st.integers(0, 1 << 20))
    def test_fat_tree_pathmap_covers_n_paths(self, src, dst, sport, start):
        """On a k = 4 fat tree, N consecutive PSNs take each PathMap
        delta once, and the N rewritten headers trace N distinct paths."""
        topo = FAT_TREE
        n = topo.path_count(src, dst)
        assume(n > 1)  # else one ToR: nothing to spray
        flow = FlowKey(src, dst)
        deltas = build_pathmap(topo, flow, sport, n)
        source = ThemisSource(ThemisConfig(),
                              pathmap_provider=lambda f, s: deltas)
        tor = topo.nic_tor[src]
        sports = []
        for psn in range(start, start + n):
            pkt = data_packet(flow, psn, 1000, udp_sport=sport)
            source.on_packet(tor, pkt, None)
            assert pkt.udp_sport == apply_pathmap(deltas, sport, psn)
            sports.append(pkt.udp_sport)
        assert sorted(s ^ sport for s in sports) == sorted(deltas)
        assert len({trace_path(topo, flow, s) for s in sports}) == n

    def test_transit_and_control_untouched(self):
        h, provided = self.harness()
        transit = data_packet(FlowKey(5, 9), 1, 1000, udp_sport=500)
        ack = ack_packet(FlowKey(9, 0), 3)
        for pkt in (transit, ack):
            h.source.on_packet(h.tor, pkt, None)
        assert transit.udp_sport == 500 and transit.path_index is None
        assert ack.path_index is None and provided == []


class TestConfigValidation:
    def test_capacity_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            ThemisConfig(queue_capacity_factor=0.9)
