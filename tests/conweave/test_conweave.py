"""Tests for the ConWeave-style baseline (reorder buffer + rerouting)."""

import pytest

from repro.conweave.config import ConweaveConfig
from repro.conweave.dest import InOrderDest
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.net.node import Device
from repro.net.packet import FlowKey, data_packet
from repro.sim.engine import Simulator, US
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.switch import Switch
from tests.faults.drive import fail_link

FLOW = FlowKey(0, 1)  # remote 0 -> local 1


class Sink(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.psns = []

    def receive(self, packet, in_port):
        self.psns.append(packet.psn)


class DestHarness:
    def __init__(self, **cfg):
        self.sim = Simulator()
        self.tor = Switch(self.sim, "tor", lb=EcmpLB(),
                          buffer=SharedBuffer(10**6),
                          ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
        self.tor.down_nics.add(1)
        self.nic = Sink(self.sim, "nic")
        down = self.tor.add_port(1e10, 0)
        down.connect(self.nic)
        self.tor.routes[1] = [down]
        self.dest = InOrderDest(ConweaveConfig(**cfg))
        self.tor.add_middleware(self.dest)

    def data(self, psn):
        self.tor.receive(data_packet(FLOW, psn, 1000), None)

    def run(self, until=None):
        self.sim.run(until=until)

    def timer_fires(self):
        """Times at which a reorder-timer entry runs, stale or live."""
        fires = []

        def trace(time, seq, callback):
            if callback.__qualname__ == "InOrderDest._timer_fire":
                fires.append(time)

        self.sim.trace = trace
        return fires


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConweaveConfig(reorder_timeout_ns=0)
        with pytest.raises(ValueError):
            ConweaveConfig(buffer_packets=0)
        with pytest.raises(ValueError):
            ConweaveConfig(flip_interval_ns=0)


class TestInOrderDest:
    def test_in_order_passes_straight_through(self):
        h = DestHarness()
        for psn in range(4):
            h.data(psn)
        h.run()
        assert h.nic.psns == [0, 1, 2, 3]
        assert h.dest.buffered_packets == 0

    def test_ooo_held_until_gap_fills(self):
        h = DestHarness()
        h.data(0)
        h.data(2)       # held
        h.data(3)       # held
        h.run(until=1 * US)
        assert h.nic.psns == [0]
        h.data(1)       # unblocks the run
        h.run()
        assert h.nic.psns == [0, 1, 2, 3]

    def test_nic_never_sees_ooo_when_gaps_heal(self):
        h = DestHarness()
        for psn in (0, 3, 1, 4, 2, 5):
            h.data(psn)
        h.run()
        assert h.nic.psns == sorted(h.nic.psns)

    def test_timeout_flushes_episode(self):
        h = DestHarness(reorder_timeout_ns=10 * US)
        h.data(0)
        h.data(2)
        h.data(4)
        h.run()  # timer fires, flush in order
        assert h.nic.psns == [0, 2, 4]
        assert h.dest.timeout_flushes == 1

    def test_delivery_resumes_after_timeout_flush(self):
        h = DestHarness(reorder_timeout_ns=10 * US)
        h.data(0)
        h.data(2)
        h.run()
        h.data(3)  # next expected after the flush
        h.run()
        assert h.nic.psns == [0, 2, 3]

    def test_late_gap_packet_passes_after_flush(self):
        h = DestHarness(reorder_timeout_ns=10 * US)
        h.data(0)
        h.data(2)
        h.run()          # flush: expected -> 3
        h.data(1)        # the late straggler
        h.run()
        assert h.nic.psns == [0, 2, 1]

    def test_gap_filled_before_timeout_leaves_a_no_op_entry(self):
        h = DestHarness(reorder_timeout_ns=10 * US)
        fires = h.timer_fires()
        h.data(0)
        h.data(2)        # arms the timer, due at 10 us
        h.run(until=1 * US)
        h.data(1)        # fills the gap: the timer is cancelled
        h.run()
        assert h.nic.psns == [0, 1, 2]
        assert h.dest.timeout_flushes == 0
        assert fires == [10 * US]   # the stale entry ran, as a no-op

    def test_timer_rearmed_after_drain_flushes_once(self):
        h = DestHarness(reorder_timeout_ns=10 * US)
        fires = h.timer_fires()
        h.data(0)
        h.data(2)
        h.data(4)        # timer armed at 0, due at 10 us
        h.run(until=1 * US)
        h.data(1)        # drains 1, 2; 4 still waits: re-armed, 11 us
        h.run()
        assert h.nic.psns == [0, 1, 2, 4]
        assert h.dest.timeout_flushes == 1
        assert fires == [10 * US, 11 * US]

    def test_overflow_flushes(self):
        h = DestHarness(buffer_packets=4)
        h.data(0)
        for psn in (2, 3, 4, 5):
            h.data(psn)
        h.run()
        assert h.dest.overflow_flushes == 1
        assert h.nic.psns == [0, 2, 3, 4, 5]

    def test_peak_buffer_tracked(self):
        h = DestHarness()
        h.data(0)
        for psn in (2, 4, 6):
            h.data(psn)
        assert h.dest.peak_buffer == 3


class TestEndToEnd:
    TOPO = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=2,
                        nics_per_tor=2, link_bandwidth_bps=25e9)

    def _network(self, scheme):
        from repro.switch.ecn import EcnConfig
        return Network(NetworkConfig(
            topology=self.TOPO, scheme=scheme, seed=5,
            ecn=EcnConfig(kmin_bytes=15_000, kmax_bytes=60_000)))

    def _ring(self, net, nbytes=400_000):
        for src, dst in ((0, 2), (2, 4), (4, 6), (6, 0),
                         (1, 3), (3, 5), (5, 7), (7, 1)):
            net.post_message(src, dst, nbytes)
        net.run(until_ns=60_000_000_000)

    def test_conweave_shields_the_nic_completely(self):
        net = self._network("conweave")
        self._ring(net)
        assert net.metrics.all_flows_done()
        # Reordering shield: the NIC never sees an OOO arrival, so the
        # commodity NACK pathology never starts.
        total_ooo = sum(f.receiver_ooo
                        for f in net.metrics.flows.values())
        assert total_ooo == 0
        assert net.metrics.nacks_generated == 0

    def test_spray_explodes_reordering_demand(self):
        """§2.3's quantitative claim: with 2-path rerouting the reorder
        buffer works only during rare reroute episodes; packet-level LB
        keeps it continuously engaged — an order of magnitude more
        buffering operations for the same traffic."""
        def work(scheme):
            net = self._network(scheme)
            self._ring(net)
            assert net.metrics.all_flows_done()
            total = sum(d.buffered_packets for d in net.conweave_dests)
            return total, net.metrics.data_packets_sent

        reroute_work, sent = work("conweave")
        spray_work, _ = work("conweave_spray")
        assert spray_work > 3 * reroute_work
        assert reroute_work < 0.1 * sent      # episodic
        assert spray_work > 0.25 * sent       # continuous

    def test_fail_link_tolerates_conweave_middleware(self):
        net = Network(NetworkConfig(topology=self.TOPO, scheme="conweave",
                                    seed=5))
        fail_link(net, "tor0:spine0")  # must not raise
        net.post_message(0, 2, 100_000)
        net.run(until_ns=30_000_000_000)
        assert net.metrics.all_flows_done()
