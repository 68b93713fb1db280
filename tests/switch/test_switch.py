"""Unit tests for the switch forwarding pipeline and middleware hooks."""

import pytest

from repro.net.node import Device
from repro.net.packet import FlowKey, ack_packet, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.switch import Middleware, Switch
from tests.net.test_port import drop_log


class SinkDevice(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


def make_switch(sim, *, buffer_bytes=10**6, ecn=None, name="sw"):
    return Switch(sim, name, lb=EcmpLB(), buffer=SharedBuffer(buffer_bytes),
                  ecn_marker=EcnMarker(ecn or EcnConfig(), SimRng(0)))


def wire(sim, sw, dst_nic_ids):
    """Give the switch one port per NIC id, each to its own sink."""
    sinks = {}
    for nic in dst_nic_ids:
        sink = SinkDevice(sim, f"sink{nic}")
        port = sw.add_port(1e9, 0)
        port.connect(sink)
        sw.routes[nic] = [port]
        sinks[nic] = sink
    return sinks


class TestForwarding:
    def test_forwards_on_single_route(self):
        sim = Simulator()
        sw = make_switch(sim)
        sinks = wire(sim, sw, [5])
        sw.receive(data_packet(FlowKey(0, 5), 0, 100), None)
        sim.run()
        assert len(sinks[5].received) == 1

    def test_missing_route_raises(self):
        sim = Simulator()
        sw = make_switch(sim)
        with pytest.raises(LookupError):
            sw.receive(data_packet(FlowKey(0, 99), 0, 100), None)

    def test_multi_candidate_uses_lb(self):
        sim = Simulator()
        sw = make_switch(sim)
        sink = SinkDevice(sim, "sink")
        ports = []
        for _ in range(4):
            port = sw.add_port(1e9, 0)
            port.connect(sink)
            ports.append(port)
        sw.routes[7] = ports
        # Many flows -> ECMP spreads across candidates.
        for src in range(32):
            sw.receive(data_packet(FlowKey(src, 7, 0), 0, 100,
                                   udp_sport=src * 997), None)
        sim.run()
        used = [p for p in ports if p.bytes_sent > 0]
        assert len(used) > 1

    def test_control_packets_take_deterministic_path(self):
        sim = Simulator()
        sw = make_switch(sim)
        sink = SinkDevice(sim, "sink")
        ports = []
        for _ in range(4):
            port = sw.add_port(1e9, 0)
            port.connect(sink)
            ports.append(port)
        sw.routes[1] = ports
        for _ in range(20):
            sw.receive(ack_packet(FlowKey(1, 2), 0), None)
        sim.run()
        used = [p for p in ports if p.bytes_sent > 0]
        assert len(used) == 1


class TestMiddleware:
    def test_blocking_middleware_consumes_packet(self):
        class BlockData(Middleware):
            def on_packet(self, switch, packet, in_port):
                return not packet.is_data

        sim = Simulator()
        sw = make_switch(sim)
        sinks = wire(sim, sw, [1])
        sw.add_middleware(BlockData())
        sw.receive(data_packet(FlowKey(0, 1), 0, 100), None)
        sw.receive(ack_packet(FlowKey(1, 0), 0), None)
        sim.run()
        assert len(sinks[1].received) == 1
        assert sinks[1].received[0].is_control

    def test_select_port_override(self):
        class PinLast(Middleware):
            def select_port(self, switch, packet, candidates):
                return candidates[-1]

        sim = Simulator()
        sw = make_switch(sim)
        sink = SinkDevice(sim, "sink")
        ports = []
        for _ in range(3):
            port = sw.add_port(1e9, 0)
            port.connect(sink)
            ports.append(port)
        sw.routes[1] = ports
        sw.add_middleware(PinLast())
        for psn in range(10):
            sw.receive(data_packet(FlowKey(0, 1), psn, 100), None)
        sim.run()
        assert ports[-1].bytes_sent == 10 * 158
        assert ports[0].bytes_sent == 0

    def test_middleware_chain_order(self):
        calls = []

        class Tag(Middleware):
            def __init__(self, label):
                self.label = label

            def on_packet(self, switch, packet, in_port):
                calls.append(self.label)
                return True

        sim = Simulator()
        sw = make_switch(sim)
        wire(sim, sw, [1])
        sw.add_middleware(Tag("first"))
        sw.add_middleware(Tag("second"))
        sw.receive(data_packet(FlowKey(0, 1), 0, 100), None)
        assert calls == ["first", "second"]


class TestBufferIntegration:
    def test_data_dropped_when_buffer_full(self):
        sim = Simulator()
        sw = make_switch(sim, buffer_bytes=2000)
        sinks = wire(sim, sw, [1])
        dropped = drop_log(sw.routes[1][0])
        for psn in range(10):
            sw.receive(data_packet(FlowKey(0, 1), psn, 1000), None)
        sim.run()
        # ~1 in flight + ~1 queued within budget; the rest dropped.
        assert len(sinks[1].received) < 10
        assert len(dropped) == 10 - len(sinks[1].received)

    def test_buffer_released_after_transmit(self):
        sim = Simulator()
        sw = make_switch(sim, buffer_bytes=10**6)
        wire(sim, sw, [1])
        for psn in range(5):
            sw.receive(data_packet(FlowKey(0, 1), psn, 1000), None)
        sim.run()
        assert sw.buffer.used_bytes == 0

    def test_ecn_marks_under_backlog(self):
        sim = Simulator()
        ecn = EcnConfig(kmin_bytes=1_000, kmax_bytes=3_000, pmax=1.0)
        sw = make_switch(sim, ecn=ecn)
        sinks = wire(sim, sw, [1])
        for psn in range(20):
            sw.receive(data_packet(FlowKey(0, 1), psn, 1000), None)
        sim.run()
        assert any(p.ecn_marked for p in sinks[1].received)

    def test_per_switch_hash_salts_differ(self):
        sim = Simulator()
        a = make_switch(sim, name="tor0")
        b = make_switch(sim, name="tor1")
        assert (a.hash_salt, a.hash_rot) != (b.hash_salt, b.hash_rot)
