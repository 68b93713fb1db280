"""Unit tests for Themis-D: tPSN identification, Eq. 3 validation, and
NACK compensation — driven packet by packet against a mock ToR."""

from repro.harness.metrics import Metrics
from repro.net.node import Device
from repro.net.packet import (FlowKey, PacketType, data_packet,
                              nack_packet)
from repro.obs.record import NACK, Recorder
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnConfig, EcnMarker
from repro.switch.lb import EcmpLB
from repro.switch.switch import Switch
from repro.themis.config import ThemisConfig
from repro.themis.dest import ThemisDest

#: data flow: remote NIC 0 -> local NIC 1, N = 2 paths.
FLOW = FlowKey(0, 1)
N_PATHS = 2


class Sink(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.got = []

    def receive(self, packet, in_port):
        self.got.append(packet)


class DestHarness:
    def __init__(self, *, config=None, n_paths=N_PATHS, capacity=32):
        self.sim = Simulator()
        self.metrics = Metrics(self.sim)
        self.tor = Switch(self.sim, "dtor", lb=EcmpLB(),
                          buffer=SharedBuffer(10**6),
                          ecn_marker=EcnMarker(EcnConfig(), SimRng(0)))
        self.tor.down_nics.add(1)
        self.local = Sink(self.sim, "nic1")
        self.remote = Sink(self.sim, "sender-side")
        down = self.tor.add_port(1e9, 0)
        down.connect(self.local)
        self.tor.routes[1] = [down]
        up = self.tor.add_port(1e9, 0)
        up.connect(self.remote)
        self.tor.routes[0] = [up]
        self.dest = ThemisDest(
            config or ThemisConfig(), self.metrics,
            n_paths_for=lambda flow: n_paths,
            queue_capacity_for=lambda flow: capacity)
        self.tor.add_middleware(self.dest)

    def data(self, psn):
        """Data packet from the fabric heading to the local NIC."""
        pkt = data_packet(FLOW, psn, 1000)
        self.tor.receive(pkt, None)
        return pkt

    def nack(self, epsn):
        """NACK from the local NIC; returns True if it was forwarded."""
        pkt = nack_packet(FLOW, epsn)
        before = len(self.remote.got)
        self.tor.receive(pkt, None)
        self.sim.run()
        return len(self.remote.got) > before

    def entry(self):
        return self.dest.table.get(FLOW)


class TestValidation:
    def test_invalid_nack_blocked(self):
        """Fig. 4b: arrivals 0,1,3 -> NACK(2); tPSN=3, 3%2 != 2%2."""
        h = DestHarness()
        for psn in (0, 1, 3):
            h.data(psn)
        assert not h.nack(2)
        assert h.metrics.themis.nacks_blocked == 1

    def test_valid_nack_forwarded(self):
        """Same-path overtake: arrivals 0,1,4 -> NACK(2); tPSN=4,
        4%2 == 2%2 -> the PSN-2 packet is genuinely lost."""
        h = DestHarness()
        for psn in (0, 1, 4):
            h.data(psn)
        assert h.nack(2)
        assert h.metrics.themis.nacks_forwarded == 1
        assert h.metrics.themis.nacks_blocked == 0

    def test_fig4b_full_sequence(self):
        h = DestHarness()
        for psn in (0, 1, 3, 2):
            h.data(psn)
        assert not h.nack(2)      # tPSN=3 -> invalid
        h.data(6)
        h.data(2)                  # duplicate retransmit arriving late
        assert h.nack(4)           # tPSN=6 -> 6%2 == 4%2 -> valid

    def test_unknown_flow_nack_forwarded_conservatively(self):
        h = DestHarness()
        assert h.nack(0)
        assert h.metrics.themis.tpsn_not_found == 1

    def test_drained_queue_forwards_conservatively(self):
        h = DestHarness()
        h.data(0)
        assert h.nack(5)  # no PSN > 5 in queue
        assert h.metrics.themis.tpsn_not_found == 1

    def test_validation_disabled_forwards_everything(self):
        h = DestHarness(config=ThemisConfig(enable_validation=False))
        for psn in (0, 1, 3):
            h.data(psn)
        assert h.nack(2)
        assert h.metrics.themis.nacks_blocked == 0

    def test_intra_rack_traffic_ignored(self):
        """Themis-D only tracks cross-rack QPs."""
        h = DestHarness()
        h.tor.down_nics.add(0)  # both ends local now
        h.data(0)
        assert h.dest.table.get(FLOW) is None

    def test_themis_generated_nack_not_reinspected(self):
        h = DestHarness()
        pkt = nack_packet(FLOW, 3)
        pkt.themis_generated = True
        h.tor.receive(pkt, None)
        h.sim.run()
        assert h.metrics.themis.nacks_inspected == 0
        assert len(h.remote.got) == 1


class TestCompensation:
    def test_fig4c_compensates_when_loss_confirmed(self):
        """Fig. 4c: block NACK(2), then PSN 4 (same path as 2) arrives
        while 2 never does -> Themis crafts NACK(2)."""
        h = DestHarness()
        for psn in (0, 1, 3):
            h.data(psn)
        assert not h.nack(2)
        entry = h.entry()
        assert entry.valid and entry.blocked_epsn == 2
        h.data(4)
        h.sim.run()
        comp = [p for p in h.remote.got if p.ptype is PacketType.NACK]
        assert len(comp) == 1
        assert comp[0].epsn == 2
        assert comp[0].themis_generated
        assert not entry.valid
        assert h.metrics.themis.nacks_compensated == 1

    def test_compensation_fires_once(self):
        h = DestHarness()
        for psn in (0, 1, 3):
            h.data(psn)
        h.nack(2)
        h.data(4)
        h.data(6)  # same residue again: must NOT re-fire
        h.sim.run()
        comp = [p for p in h.remote.got if p.ptype is PacketType.NACK]
        assert len(comp) == 1

    def test_arrival_of_bepsn_cancels(self):
        """§3.4: if the blocked ePSN packet shows up, no compensation."""
        h = DestHarness()
        recorder = Recorder(retain=[NACK])
        h.dest.rec = recorder.channel(NACK)
        for psn in (0, 1, 3):
            h.data(psn)
        h.nack(2)
        h.data(2)   # the "lost" packet was only delayed
        h.data(4)   # same residue afterwards: must not fire
        h.sim.run()
        comp = [p for p in h.remote.got if p.ptype is PacketType.NACK]
        assert comp == []
        cancels = [data for _, _, name, _, data in recorder.records(NACK)
                   if name == "nack_cancel"]
        assert [c["reason"] for c in cancels] == ["bepsn_arrived"]

    def test_different_path_packet_does_not_trigger(self):
        h = DestHarness()
        for psn in (0, 1, 3):
            h.data(psn)
        h.nack(2)
        h.data(5)   # 5 % 2 != 2 % 2: different path, says nothing about 2
        h.sim.run()
        comp = [p for p in h.remote.got if p.ptype is PacketType.NACK]
        assert comp == []
        assert h.entry().valid  # still armed

    def test_arming_guard_when_epsn_already_passed_tor(self):
        """The stale-NACK case: PSN 2 passed the ToR (it is in the ring
        behind the trigger) before its NACK arrived.  Compensation must
        not arm — PSN 2 is demonstrably not lost."""
        h = DestHarness()
        for psn in (0, 1, 3, 2):   # 2 passes the ToR before the NACK
            h.data(psn)
        assert not h.nack(2)
        assert not h.entry().valid
        h.data(4)
        h.sim.run()
        comp = [p for p in h.remote.got if p.ptype is PacketType.NACK]
        assert comp == []

    def test_compensation_disabled(self):
        h = DestHarness(config=ThemisConfig(enable_compensation=False))
        for psn in (0, 1, 3):
            h.data(psn)
        h.nack(2)
        h.data(4)
        h.sim.run()
        comp = [p for p in h.remote.got if p.ptype is PacketType.NACK]
        assert comp == []
        assert h.entry().blocked_epsn is None


class TestFlowTableIntegration:
    def test_entry_created_on_first_data(self):
        h = DestHarness()
        assert h.entry() is None
        h.data(0)
        assert h.entry() is not None
        assert h.entry().n_paths == N_PATHS

    def test_non_power_of_two_paths_use_full_psns(self):
        h = DestHarness(n_paths=3)
        h.data(0)
        assert h.entry().queue.psn_bits == 32

    def test_queue_overflow_counted(self):
        h = DestHarness(capacity=4)
        for psn in range(10):
            h.data(psn)
        assert h.metrics.themis.queue_overflows == 6
