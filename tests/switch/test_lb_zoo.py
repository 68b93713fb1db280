"""Unit tests for the adaptive-spraying baseline zoo (REPS, PRIME,
Spritz, Sprinklers)."""

from repro.net.node import Device
from repro.net.packet import FlowKey, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import (EcmpLB, PrimeLB, RepsLB, SprinklersLB,
                             SpritzLB)
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


class TestRepsLB:
    def test_fresh_draws_before_any_ack(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RepsLB(SimRng(1))
        flow = FlowKey(0, 9)
        for psn in range(10):
            pick = lb.select(sw, data_packet(flow, psn, 100), ports)
            assert pick in ports
        assert lb.fresh_draws == 10
        assert lb.recycled_hits == 0

    def test_ack_recycles_entropy(self):
        """ACKed (entropy, port) pairs are reused for later packets."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RepsLB(SimRng(2))
        flow = FlowKey(0, 9)
        first = [lb.select(sw, data_packet(flow, psn, 100), ports)
                 for psn in range(8)]
        lb.on_ack(flow, 8)  # cumulative: everything below 8 delivered
        second = [lb.select(sw, data_packet(flow, psn, 100), ports)
                  for psn in range(8, 16)]
        assert lb.recycled_hits == 8
        # Recycling preserves the ACKed port sequence in order.
        assert second == first

    def test_ack_only_covers_psns_below_epsn(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RepsLB(SimRng(3))
        flow = FlowKey(0, 9)
        for psn in range(6):
            lb.select(sw, data_packet(flow, psn, 100), ports)
        lb.on_ack(flow, 3)
        lb.select(sw, data_packet(flow, 6, 100), ports)
        assert lb.recycled_hits == 1
        assert len(lb._inflight[flow]) == 4  # psn 3,4,5 + psn 6

    def test_retransmit_overwrites_inflight_entropy(self):
        """A retransmitted PSN discards the entropy that lost the
        packet: only the successful attempt's entropy can recycle."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RepsLB(SimRng(4))
        flow = FlowKey(0, 9)
        lb.select(sw, data_packet(flow, 0, 100), ports)
        retx_pick = lb.select(sw, data_packet(flow, 0, 100,
                                              is_retx=True), ports)
        assert len(lb._inflight[flow]) == 1
        lb.on_ack(flow, 1)
        assert lb.select(sw, data_packet(flow, 1, 100),
                         ports) is retx_pick

    def test_evict_dead_purges_cache_and_inflight(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RepsLB(SimRng(5))
        flow = FlowKey(0, 9)
        for psn in range(20):
            lb.select(sw, data_packet(flow, psn, 100), ports)
        lb.on_ack(flow, 10)
        dead = ports[0]
        dead.up = False
        lb.evict_dead()
        for entry in lb._cache[flow]:
            assert entry[1] is not dead
        for _, port in lb._inflight[flow].values():
            assert port is not dead

    def test_select_skips_dead_cached_entries_lazily(self):
        """Between failure and reconvergence the cache may still hold a
        dead port; select must never recycle it."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RepsLB(SimRng(6))
        flow = FlowKey(0, 9)
        for psn in range(30):
            lb.select(sw, data_packet(flow, psn, 100), ports)
        lb.on_ack(flow, 30)
        ports[0].up = False  # no evict_dead(): lazy path
        live = ports[1:]
        for psn in range(30, 60):
            pick = lb.select(sw, data_packet(flow, psn, 100), live)
            assert pick in live

    def test_dead_port_ack_not_recycled(self):
        """An ACK covering a packet sent on a now-dead port discards
        that entropy instead of caching it."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = RepsLB(SimRng(7))
        flow = FlowKey(0, 9)
        picks = [lb.select(sw, data_packet(flow, psn, 100), ports)
                 for psn in range(12)]
        picks[0].up = False
        lb.on_ack(flow, 12)
        for entry in lb._cache[flow]:
            assert entry[1].up


class TestPrimeLB:
    def test_stateless_determinism(self):
        """No RNG: two instances produce identical pick sequences."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        a, b = PrimeLB(), PrimeLB()
        flow = FlowKey(0, 9)
        for psn in range(64):
            pkt = data_packet(flow, psn, 100, udp_sport=4242)
            assert a.select(sw, pkt, ports) is b.select(sw, pkt, ports)

    def test_consecutive_packets_spread(self):
        """The rolling entropy part decorrelates consecutive packets of
        one flow across ports (unlike ECMP)."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = PrimeLB()
        flow = FlowKey(0, 9)
        picks = {lb.select(sw, data_packet(flow, psn, 100,
                                           udp_sport=4242), ports)
                 for psn in range(64)}
        assert len(picks) > 1

    def test_probes_avoid_congested_port(self):
        """With a heavily-backlogged port, the multi-probe minimum
        steers most traffic elsewhere."""
        sim = Simulator()
        sw, ports = make_switch(sim, n_ports=2)
        lb = PrimeLB()
        for i in range(50):
            ports[0].enqueue(data_packet(FlowKey(5, 6), i, 1000))
        flow = FlowKey(0, 9)
        picks = [lb.select(sw, data_packet(flow, psn, 100,
                                           udp_sport=7), ports)
                 for psn in range(100)]
        assert picks.count(ports[1]) > picks.count(ports[0])


class TestSpritzLB:
    def test_uniform_when_unloaded(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = SpritzLB(SimRng(1))
        flow = FlowKey(0, 9)
        picks = {lb.select(sw, data_packet(flow, psn, 100), ports)
                 for psn in range(100)}
        assert picks == set(ports)

    def test_persistent_backlog_downweighted(self):
        """A port with standing backlog receives a sub-uniform share —
        the path-state memory plain RPS lacks."""
        sim = Simulator()
        sw, ports = make_switch(sim, n_ports=2)
        lb = SpritzLB(SimRng(2), mtu_bytes=1000)
        for i in range(20):
            ports[0].enqueue(data_packet(FlowKey(5, 6), i, 1000))
        flow = FlowKey(0, 9)
        picks = [lb.select(sw, data_packet(flow, psn, 100), ports)
                 for psn in range(400)]
        share = picks.count(ports[0]) / len(picks)
        assert share < 0.35  # uniform would be 0.5

    def test_ewma_recovers_after_drain(self):
        """Once the backlog drains, the EWMA decays and the port's
        share recovers (bad paths are re-probed, not blacklisted)."""
        sim = Simulator()
        sw, ports = make_switch(sim, n_ports=2)
        lb = SpritzLB(SimRng(3), mtu_bytes=1000)
        for i in range(20):
            ports[0].enqueue(data_packet(FlowKey(5, 6), i, 1000))
        flow = FlowKey(0, 9)
        for psn in range(10):
            lb.select(sw, data_packet(flow, psn, 100), ports)
        loaded_score = lb._ewma[ports[0]]
        ports[0].flush("test-drain")
        for psn in range(10, 40):
            lb.select(sw, data_packet(flow, psn, 100), ports)
        assert lb._ewma[ports[0]] < loaded_score / 4


class TestSprinklersLB:
    def test_deterministic(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        a, b = SprinklersLB(), SprinklersLB()
        flow = FlowKey(0, 9)
        for psn in range(200):
            pkt = data_packet(flow, psn, 100, udp_sport=4242)
            assert a.select(sw, pkt, ports) is b.select(sw, pkt, ports)

    def test_psns_within_stripe_share_port(self):
        """Consecutive PSNs inside one stripe take one egress (bounded
        reordering); different stripes may move."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = SprinklersLB()
        # Pick a flow whose hashed stripe size exceeds one packet.
        lb.select(sw, data_packet(FlowKey(3, 9), 0, 100), ports)
        flow = next((f for src in range(64)
                     for f in [FlowKey(src, 9)]
                     if lb.select(sw, data_packet(f, 0, 100), ports)
                     and lb._stripe[f][0] >= 2), None)
        assert flow is not None
        stripe_size = 1 << lb._stripe[flow][0]
        picks = {lb.select(sw, data_packet(flow, psn, 100), ports)
                 for psn in range(stripe_size)}
        assert len(picks) == 1

    def test_flow_spreads_across_stripes(self):
        """Over many stripes the flow uses more than one uplink."""
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = SprinklersLB()
        flow = FlowKey(0, 9)
        picks = {lb.select(sw, data_packet(flow, psn, 100), ports)
                 for psn in range(512)}
        assert len(picks) > 1

    def test_flows_get_different_stripe_sizes(self):
        sim = Simulator()
        sw, ports = make_switch(sim)
        lb = SprinklersLB()
        shifts = set()
        for src in range(32):
            flow = FlowKey(src, 99)
            lb.select(sw, data_packet(flow, 0, 100), ports)
            shifts.add(lb._stripe[flow][0])
        assert len(shifts) > 1
