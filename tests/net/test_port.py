"""Unit tests for the egress port (serialization, priority, drops)."""

import pytest

from repro.net.node import Device
from repro.net.packet import FlowKey, ack_packet, data_packet
from repro.net.port import Port
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer


class SinkDevice(Device):
    """Records everything it receives."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((self.sim.now, packet))


def make_port(sim, bandwidth_bps=1e9, delay_ns=100):
    src = SinkDevice(sim, "src")
    dst = SinkDevice(sim, "dst")
    port = Port(sim, src, bandwidth_bps=bandwidth_bps, delay_ns=delay_ns)
    port.connect(dst)
    return port, dst


def drop_log(port):
    """The packets *port* discards from now on, as its ``on_drop`` hook
    sees them (any hook already installed still runs)."""
    dropped = []
    inner = port.on_drop

    def on_drop(packet, at):
        dropped.append(packet)
        if inner is not None:
            inner(packet, at)

    port.on_drop = on_drop
    return dropped


def full_buffer():
    """A shared buffer with no room left: admits no data packet."""
    buffer = SharedBuffer(1)
    buffer.used_bytes = 1
    return buffer


class TestSerialization:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=100)
        pkt = data_packet(FlowKey(0, 1), 0, 1000 - 58)  # 1000 B wire
        port.enqueue(pkt)
        sim.run()
        # 1000 B at 1 Gbps = 8000 ns, plus 100 ns propagation.
        assert dst.received == [(8100, pkt)]

    def test_back_to_back_packets_pipeline(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=0)
        p1 = data_packet(FlowKey(0, 1), 0, 1000 - 58)
        p2 = data_packet(FlowKey(0, 1), 1, 1000 - 58)
        port.enqueue(p1)
        port.enqueue(p2)
        sim.run()
        times = [t for t, _ in dst.received]
        assert times == [8000, 16000]

    def test_fifo_order_preserved(self):
        sim = Simulator()
        port, dst = make_port(sim)
        pkts = [data_packet(FlowKey(0, 1), i, 100) for i in range(10)]
        for pkt in pkts:
            port.enqueue(pkt)
        sim.run()
        assert [p.psn for _, p in dst.received] == list(range(10))


class TestPriority:
    def test_control_preempts_queued_data(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=0)
        data = [data_packet(FlowKey(0, 1), i, 1000) for i in range(3)]
        for pkt in data:
            port.enqueue(pkt)
        ack = ack_packet(FlowKey(1, 0), 5)
        port.enqueue(ack)
        sim.run()
        order = [p for _, p in dst.received]
        # First data packet was already in flight; the ACK jumps the rest.
        assert order[0] is data[0]
        assert order[1] is ack

    def test_control_bypasses_admission_policy(self):
        sim = Simulator()
        port, dst = make_port(sim)
        port.buffer = full_buffer()
        dropped = drop_log(port)
        port.enqueue(ack_packet(FlowKey(1, 0), 1))
        data = data_packet(FlowKey(0, 1), 0, 100)
        port.enqueue(data)
        sim.run()
        assert len(dst.received) == 1
        assert dst.received[0][1].is_control
        assert dropped == [data]


class TestDropsAndFaults:
    def test_policy_drop_invokes_callback(self):
        sim = Simulator()
        port, dst = make_port(sim)
        port.buffer = full_buffer()
        dropped = []
        port.on_drop = lambda pkt, prt: dropped.append(pkt)
        pkt = data_packet(FlowKey(0, 1), 0, 100)
        assert not port.enqueue(pkt)
        assert dropped == [pkt]

    def test_loss_rate_drops_some_data(self):
        sim = Simulator()
        port, dst = make_port(sim)
        port.set_loss(0.5, SimRng(3))
        dropped = drop_log(port)
        for i in range(200):
            port.enqueue(data_packet(FlowKey(0, 1), i, 100))
        sim.run()
        assert 0 < len(dst.received) < 200
        assert len(dropped) == 200 - len(dst.received)

    def test_loss_rate_validation(self):
        sim = Simulator()
        port, _ = make_port(sim)
        with pytest.raises(ValueError):
            port.set_loss(1.5, SimRng(0))

    def test_link_down_drops_everything(self):
        sim = Simulator()
        port, dst = make_port(sim)
        port.up = False
        dropped = drop_log(port)
        port.enqueue(data_packet(FlowKey(0, 1), 0, 100))
        sim.run()
        assert dst.received == []
        assert len(dropped) == 1


class TestAccounting:
    def test_queued_bytes_tracks_data_backlog(self):
        sim = Simulator()
        port, _ = make_port(sim)
        pkt = data_packet(FlowKey(0, 1), 0, 1000)
        port.enqueue(pkt)       # starts transmitting immediately
        port.enqueue(data_packet(FlowKey(0, 1), 1, 1000))
        assert port.queued_bytes == 1058
        sim.run()
        assert port.queued_bytes == 0

    def test_stats_counters(self):
        sim = Simulator()
        port, _ = make_port(sim)
        for i in range(5):
            port.enqueue(data_packet(FlowKey(0, 1), i, 100))
        sim.run()
        assert port.bytes_sent == 5 * 158
        assert port.busy_ns > 0
