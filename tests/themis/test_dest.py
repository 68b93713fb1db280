"""Unit tests for the Themis-D switch adapter, driven packet by packet
against a mock ToR: what it counts, traces and forwards for the rules'
verdicts.  The rules themselves are tested in test_flow_table.py."""

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
    def __init__(self, *, n_paths=N_PATHS, capacity=32, **ablation):
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
            ThemisConfig(), self.metrics,
            n_paths_for=lambda flow: n_paths,
            queue_capacity_for=lambda flow: capacity, **ablation)
        self.tor.add_middleware(self.dest)

    def data(self, psn, flow=FLOW):
        """Data packet from the fabric heading to the local NIC."""
        pkt = data_packet(flow, psn, 1000)
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

    def trace(self):
        """Record the NACK audit channel from here on; returns the
        recorder."""
        recorder = Recorder(retain=[NACK])
        self.dest.rec = recorder.channel(NACK)
        return recorder

    def crafted(self):
        """Themis-generated NACKs sent toward the remote sender."""
        self.sim.run()
        return [p for p in self.remote.got
                if p.ptype is PacketType.NACK and p.themis_generated]


def nack_events(recorder, name):
    """``data`` of every retained NACK-audit record called ``name``."""
    return [data for _, _, kind, _, data in recorder.records(NACK)
            if kind == name]


class TestValidation:
    def test_invalid_nack_blocked(self):
        """Fig. 4b at the switch: the blocked NACK never leaves."""
        h = DestHarness()
        for psn in (0, 1, 3):
            h.data(psn)
        assert not h.nack(2)
        assert h.metrics.themis.nacks_blocked == 1
        assert h.metrics.themis.nacks_forwarded == 0

    def test_valid_nack_forwarded(self):
        h = DestHarness()
        for psn in (0, 1, 4):
            h.data(psn)
        assert h.nack(2)
        assert h.metrics.themis.nacks_forwarded == 1
        assert h.metrics.themis.nacks_blocked == 0

    def test_unknown_flow_nack_forwarded_conservatively(self):
        h = DestHarness()
        recorder = h.trace()
        assert h.nack(0)
        assert h.metrics.themis.tpsn_not_found == 1
        assert h.metrics.themis.nacks_forwarded == 1
        assert [c["verdict"] for c in nack_events(
            recorder, "nack_classify")] == ["no_state"]

    def test_drained_queue_forwards_conservatively(self):
        h = DestHarness()
        recorder = h.trace()
        h.data(0)
        assert h.nack(5)  # no PSN > 5 in queue
        assert h.metrics.themis.tpsn_not_found == 1
        assert h.metrics.themis.nacks_forwarded == 1
        assert [c["verdict"] for c in nack_events(
            recorder, "nack_classify")] == ["no_tpsn"]

    def test_classify_trace_carries_the_verdict(self):
        h = DestHarness()
        recorder = h.trace()
        for psn in (0, 1, 3, 2):
            h.data(psn)
        h.nack(2)                  # blocked; 2 is in the ring: guarded
        h.data(6)
        h.nack(4)                  # tPSN 6: forwarded
        first, second = nack_events(recorder, "nack_classify")
        assert (first["verdict"], first["tpsn"], first["armed"],
                first["guard"]) == ("blocked", 3, False, "epsn_in_ring")
        assert (second["verdict"], second["tpsn"]) == ("forwarded", 6)
        assert first["n_paths"] == N_PATHS

    def test_validation_disabled_forwards_everything(self):
        h = DestHarness(validate=False)
        for psn in (0, 1, 3):
            h.data(psn)
        assert h.nack(2)
        assert h.metrics.themis.nacks_blocked == 0
        assert h.metrics.themis.nacks_inspected == 0

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
        """Fig. 4c at the switch: the crafted NACK(2) leaves toward the
        sender, once."""
        h = DestHarness()
        recorder = h.trace()
        for psn in (0, 1, 3):
            h.data(psn)
        assert not h.nack(2)
        h.data(4)
        h.data(6)  # same residue again: must NOT re-fire
        comp = h.crafted()
        assert [p.epsn for p in comp] == [2]
        assert h.metrics.themis.nacks_compensated == 1
        assert nack_events(recorder, "nack_compensate") \
            == [{"flow": str(FLOW), "bepsn": 2, "prove_psn": 4}]

    def test_arrival_of_bepsn_cancels(self):
        h = DestHarness()
        recorder = h.trace()
        for psn in (0, 1, 3):
            h.data(psn)
        h.nack(2)
        h.data(2)   # the "lost" packet was only delayed
        h.data(4)
        assert h.crafted() == []
        assert [c["reason"] for c in nack_events(recorder, "nack_cancel")] \
            == ["bepsn_arrived"]

    def test_rearm_traces_superseded_before_the_block(self):
        h = DestHarness()
        recorder = h.trace()
        for psn in (0, 1, 3):
            h.data(psn)
        h.nack(2)
        h.data(5)
        h.data(7)
        h.nack(4)
        names = [(kind, data.get("reason") or data.get("verdict"))
                 for _, _, kind, _, data in recorder.records(NACK)]
        assert names == [("nack_classify", "blocked"),
                         ("nack_cancel", "superseded"),
                         ("nack_classify", "blocked")]
        assert nack_events(recorder, "nack_cancel")[0]["bepsn"] == 2

    def test_compensation_disabled(self):
        h = DestHarness(compensate=False)
        recorder = h.trace()
        for psn in (0, 1, 3):
            h.data(psn)
        h.nack(2)
        h.data(4)
        assert h.crafted() == []
        assert h.entry().blocked_epsn is None
        assert nack_events(recorder, "nack_classify")[0]["guard"] \
            == "compensation_disabled"


class TestPathFailure:
    def test_disable_cancels_every_armed_register(self):
        """§6 fallback: each armed QP gets one traced cancel; the
        unarmed one none."""
        h = DestHarness()
        recorder = h.trace()
        armed = (FLOW, FlowKey(0, 1, 1))
        for flow in armed + (FlowKey(0, 1, 2),):
            for psn in (0, 1, 3):
                h.data(psn, flow)
        for flow in armed:
            h.tor.receive(nack_packet(flow, 2), None)
        h.dest.disable()
        assert nack_events(recorder, "nack_cancel") == [
            {"flow": str(flow), "bepsn": 2,
             "reason": "path_failure_disable"} for flow in armed]
        assert not any(e.valid for e in h.dest.table.values())
        # Disabled, the stage passes everything through untouched.
        h.data(4)
        assert h.crafted() == []
        h.dest.disable()           # already dark: nothing more traced
        assert len(recorder.records(NACK)) == 4

    def test_enable_starts_from_an_empty_table(self):
        h = DestHarness()
        h.data(0)
        h.dest.disable()
        h.dest.enable()
        assert h.dest.table == {}
        h.data(1)
        assert list(h.dest.table) == [FLOW]


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
