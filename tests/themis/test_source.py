"""Unit tests for Themis-S: PSN-based spraying (Eq. 1) in both modes."""

import pytest

from repro.net.node import Device
from repro.net.packet import FlowKey, ack_packet, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB, ecmp_index
from repro.switch.switch import Switch
from repro.themis.config import ThemisConfig
from repro.themis.source import ThemisSource

FLOW = FlowKey(0, 9)  # local NIC 0 -> remote NIC 9


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
