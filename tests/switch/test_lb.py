"""Unit tests for load balancers and the linear ECMP hash."""

from repro.net.node import Device
from repro.net.packet import FlowKey, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import (AdaptiveRoutingLB, EcmpLB, RandomSprayLB,
                             ecmp_hash, ecmp_index, rotl16, rotr16)
from repro.switch.switch import Switch


def make_switch(sim, name="sw", n_ports=4):
    sw = Switch(sim, name, lb=EcmpLB(), buffer=SharedBuffer(10**6),
                ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
    sink = Device(sim, "sink")
    ports = []
    for _ in range(n_ports):
        port = sw.add_port(1e9, 0)
        port.connect(sink)
        ports.append(port)
    return sw, ports


class TestRotations:
    def test_rotl_rotr_inverse(self):
        for value in (0x0001, 0x8000, 0xBEEF, 0xFFFF):
            for amount in range(17):
                assert rotr16(rotl16(value, amount), amount) == value

    def test_rotl_wraps(self):
        assert rotl16(0x8000, 1) == 0x0001
        assert rotl16(0x0001, 16) == 0x0001


class TestEcmpHash:
    def test_deterministic(self):
        assert ecmp_hash(1, 2, 3, 4) == ecmp_hash(1, 2, 3, 4)

    def test_sensitive_to_every_field(self):
        base = ecmp_hash(1, 2, 3, 400)
        assert ecmp_hash(9, 2, 3, 400) != base
        assert ecmp_hash(1, 9, 3, 400) != base
        assert ecmp_hash(1, 2, 9, 400) != base
        assert ecmp_hash(1, 2, 3, 900) != base

    def test_salt_changes_hash(self):
        assert ecmp_hash(1, 2, 3, 4, salt=7) != ecmp_hash(1, 2, 3, 4)

    def test_linearity_in_sport(self):
        """hash(sport ^ d) == hash(sport) ^ rotl16(d, rot) — the property
        the PathMap construction (Fig. 3 / [37]) relies on."""
        for rot in (1, 5, 11):
            for delta in (0x0001, 0x00F0, 0xABCD):
                base = ecmp_hash(10, 20, 1, 5555, salt=42, rot=rot)
                shifted = ecmp_hash(10, 20, 1, 5555 ^ delta, salt=42,
                                    rot=rot)
                assert shifted == base ^ rotl16(delta, rot)

    def test_index_distribution_roughly_uniform(self):
        # Random-looking sports, as NICs assign them per QP.
        counts = [0] * 8
        for i in range(4000):
            sport = (i * 7919 + 13) & 0xFFFF
            pkt = data_packet(FlowKey(3, 7), 0, 100, udp_sport=sport)
            counts[ecmp_index(pkt, 8)] += 1
        assert min(counts) > 300


class TestEcmpLB:
    def test_flow_sticks_to_one_port(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = EcmpLB()
        picks = {lb.select(sw, data_packet(FlowKey(1, 2), psn, 100,
                                           udp_sport=777), ports)
                 for psn in range(50)}
        assert len(picks) == 1

    def test_different_flows_spread(self):
        sim = Simulator()
        sw, ports = make_switch(sim, n_ports=8)
        lb = EcmpLB()
        picks = {lb.select(sw, data_packet(FlowKey(src, 99, 0), 0, 100,
                                           udp_sport=src * 131), ports)
                 for src in range(64)}
        assert len(picks) > 3


class TestRandomSprayLB:
    def test_sprays_same_flow_across_ports(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RandomSprayLB(SimRng(1))
        picks = {lb.select(sw, data_packet(FlowKey(1, 2), psn, 100), ports)
                 for psn in range(100)}
        assert len(picks) == 4


class TestAdaptiveRoutingLB:
    def test_avoids_backlogged_port(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = AdaptiveRoutingLB(SimRng(1))
        # Pile several bins worth of backlog on port 0.
        for i in range(10):
            ports[0].enqueue(data_packet(FlowKey(0, 1), i, 1000))
        picks = [lb.select(sw, data_packet(FlowKey(1, 2), p, 100), ports)
                 for p in range(60)]
        assert ports[0] not in picks

    def test_ties_spread_randomly(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = AdaptiveRoutingLB(SimRng(2))
        picks = {lb.select(sw, data_packet(FlowKey(1, 2), p, 100), ports)
                 for p in range(100)}
        assert len(picks) == 4
