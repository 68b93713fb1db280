"""Conservation tests for the folded Port transmit path.

The folded path schedules one delivery event per packet and tracks the
serializer with a timestamp, so ``busy_ns`` is accumulated analytically
(at pop time) rather than measured between start/finish events.  These
tests pin the accounting: busy time equals the sum of per-packet
serialization times, lost packets still occupy the wire, and idle gaps
never accrue.

A packet that finds its port idle is transmitted without being queued;
:class:`TestIdlePortAccounting` pins that it is still admitted, counted,
marked, credited and recorded exactly as a queued packet is.
"""

from repro.net.packet import FlowKey, ack_packet, data_packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.pfc import PfcConfig, PfcController
from repro.switch.switch import Switch
from tests.net.test_port import SinkDevice, drop_log, make_port


class TestBusyNsConservation:
    def test_busy_equals_sum_of_serialization_times(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=100)
        pkts = [data_packet(FlowKey(0, 1), i, 1000 - 58) for i in range(5)]
        expected = sum(p.wire_bytes * 8 for p in pkts)  # ns at 1 Gb/s
        for pkt in pkts:
            port.enqueue(pkt)
        sim.run()
        assert port.busy_ns == expected == 5 * 8000
        assert len(dst.received) == 5

    def test_mixed_control_and_data_all_accounted(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=0)
        pkts = [data_packet(FlowKey(0, 1), 0, 1000 - 58),
                ack_packet(FlowKey(1, 0), 7),
                data_packet(FlowKey(0, 1), 1, 500 - 58)]
        expected = sum(p.wire_bytes * 8 for p in pkts)  # ns at 1 Gb/s
        for pkt in pkts:
            port.enqueue(pkt)
        sim.run()
        assert port.busy_ns == expected
        assert len(dst.received) == 3

    def test_lost_packets_still_occupy_the_wire(self):
        """A drop decided at serialization start still burns one packet
        time of link capacity — loss must not deflate utilisation."""
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=0)
        port.set_loss(1.0, SimRng(3))
        dropped = drop_log(port)
        pkts = [data_packet(FlowKey(0, 1), i, 1000 - 58) for i in range(4)]
        expected = sum(p.wire_bytes * 8 for p in pkts)  # ns at 1 Gb/s
        for pkt in pkts:
            port.enqueue(pkt)
        sim.run()
        assert dst.received == []
        assert dropped == pkts
        assert port.busy_ns == expected

    def test_idle_gaps_do_not_accrue(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=0)
        port.enqueue(data_packet(FlowKey(0, 1), 0, 1000 - 58))
        sim.run()
        sim.schedule(50_000, lambda: port.enqueue(
            data_packet(FlowKey(0, 1), 1, 1000 - 58)))
        sim.run()
        # Two packets of wire time, regardless of the 50 us idle gap.
        assert port.busy_ns == 2 * 8000
        assert sim.now >= 58_000

    def test_busy_never_exceeds_elapsed_time_under_load(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=200)
        for i in range(50):
            port.enqueue(data_packet(FlowKey(0, 1), i, 1000 - 58))
        sim.run()
        assert port.busy_ns <= sim.now
        # Back-to-back backlog: the serializer was busy the whole time
        # except the trailing propagation delay.
        assert port.busy_ns == 50 * 8000 == sim.now - 200

    def test_paused_data_does_not_serialize(self):
        sim = Simulator()
        port, dst = make_port(sim, bandwidth_bps=1e9, delay_ns=0)
        port.pause_data()
        port.enqueue(data_packet(FlowKey(0, 1), 0, 1000 - 58))
        sim.run()
        assert port.busy_ns == 0 and dst.received == []
        port.resume_data()
        sim.run()
        assert port.busy_ns == 8000 and len(dst.received) == 1


def switch_port(sim, *, buffer_bytes=10**6, ecn=EcnConfig()):
    """One switch with one egress port (1 Gbps, toward NIC 1) to a sink."""
    switch = Switch(sim, "sw", lb=EcmpLB(),
                    buffer=SharedBuffer(buffer_bytes),
                    ecn_marker=EcnMarker(ecn, SimRng(0)))
    sink = SinkDevice(sim, "sink")
    port = switch.add_port(1e9, 0)
    port.connect(sink)
    switch.routes[1] = [port]
    return switch, port, sink


def marker_calls(marker):
    """The queue depths ``marker.should_mark`` is consulted with, from
    now on (the port calls it through the instance)."""
    depths = []
    should_mark = marker.should_mark

    def recording(queue_bytes):
        depths.append(queue_bytes)
        return should_mark(queue_bytes)

    marker.should_mark = recording
    return depths


class TestIdlePortAccounting:
    """A data packet through an idle switch port (never in the FIFO)."""

    def test_buffer_returns_to_zero_and_peak_saw_the_packet(self):
        sim = Simulator()
        switch, port, sink = switch_port(sim)
        pkt = data_packet(FlowKey(0, 1), 0, 1000 - 58)
        assert port.enqueue(pkt)
        # Transmitting already: nothing is held, yet the pool saw it.
        assert port.queued_bytes == 0
        assert switch.buffer.used_bytes == 0
        assert switch.buffer.peak_bytes == 1000
        sim.run()
        assert sink.received == [(8000, pkt)]
        assert port.busy_ns == 8000 and port.bytes_sent == 1000

    def test_marker_evaluates_once_at_the_packets_own_depth(self):
        sim = Simulator()
        # kmin 999 B: the 1000 B packet is the only thing queued, so its
        # own depth alone is above kmin (and far below kmax).
        switch, port, _ = switch_port(
            sim, ecn=EcnConfig(kmin_bytes=999, kmax_bytes=10**6))
        depths = marker_calls(switch.ecn_marker)
        pkt = data_packet(FlowKey(0, 1), 0, 1000 - 58)
        port.enqueue(pkt)
        assert depths == [1000]

    def test_at_or_below_kmin_no_marker_call_and_no_draw(self):
        sim = Simulator()
        for kmin in (1000, 100_000):       # at kmin, then below it
            switch, port, _ = switch_port(
                sim, ecn=EcnConfig(kmin_bytes=kmin, kmax_bytes=10**6))
            marker = switch.ecn_marker
            depths = marker_calls(marker)
            state = marker._rng._gen.getstate()
            pkt = data_packet(FlowKey(0, 1), 0, 1000 - 58)
            port.enqueue(pkt)
            assert (depths, marker.marked) == ([], 0)
            assert marker._rng._gen.getstate() == state   # no draw
            assert not pkt.ecn_marked

    def test_kmin_zero_marks_it(self):
        sim = Simulator()
        # kmax == kmin == 0: any depth at all is marked, without a draw.
        switch, port, _ = switch_port(
            sim, ecn=EcnConfig(kmin_bytes=0, kmax_bytes=0))
        depths = marker_calls(switch.ecn_marker)
        pkt = data_packet(FlowKey(0, 1), 0, 1000 - 58)
        port.enqueue(pkt)
        assert pkt.ecn_marked
        assert (len(depths), switch.ecn_marker.marked) == (1, 1)

    def test_full_buffer_drops_with_one_on_drop(self):
        sim = Simulator()
        switch, port, sink = switch_port(sim, buffer_bytes=999)
        depths = marker_calls(switch.ecn_marker)
        dropped = []
        port.on_drop = lambda pkt, prt: dropped.append(pkt)
        pkt = data_packet(FlowKey(0, 1), 0, 1000 - 58)
        assert not port.enqueue(pkt)
        sim.run()
        assert dropped == [pkt]
        assert sink.received == [] and port.busy_ns == 0
        assert switch.buffer.used_bytes == switch.buffer.peak_bytes == 0
        assert depths == []

    def test_pfc_ingress_credit_is_returned(self):
        sim = Simulator()
        switch, port, sink = switch_port(sim)
        switch.pfc = PfcController(sim, switch, PfcConfig(3000, 1500))
        up_port, _ = make_port(sim)
        switch.receive(data_packet(FlowKey(0, 1), 0, 1000 - 58), up_port)
        assert switch.pfc.ingress_occupancy(up_port) == 0
        assert not switch.pfc._origin
        sim.run()
        assert len(sink.received) == 1

    def test_paused_data_queues_while_control_still_goes(self):
        sim = Simulator()
        switch, port, sink = switch_port(sim)
        port.pause_data()
        data = data_packet(FlowKey(0, 1), 0, 1000 - 58)
        ack = ack_packet(FlowKey(1, 0), 3)
        assert port.enqueue(data)
        assert port.queued_bytes == 1000
        assert switch.buffer.used_bytes == 1000
        port.enqueue(ack)
        sim.run()
        assert [p for _, p in sink.received] == [ack]
        port.resume_data()
        sim.run()
        assert [p for _, p in sink.received] == [ack, data]
        assert port.queued_bytes == switch.buffer.used_bytes == 0

    def test_wired_queue_channels_record_one_enq_and_one_deq(self):
        sim = Simulator()
        switch, port, sink = switch_port(sim)
        enq, deq = [], []
        port._rec_enq = lambda *args: enq.append(args)
        port._rec_deq = lambda *args: deq.append(args)
        port.enqueue(data_packet(FlowKey(0, 1), 0, 1000 - 58))
        sim.run()
        assert enq == [(0, "sw.p0", 1000, 1)]
        assert deq == [(0, "sw.p0", 0, 0)]
        assert len(sink.received) == 1
        assert switch.buffer.used_bytes == 0
        assert switch.buffer.peak_bytes == 1000
