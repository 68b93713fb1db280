"""Golden-equality tests for the Recorder's compact rows.

The Recorder stores compact struct rows and materializes the
``(t, cat, name, loc, data)`` record shape lazily.  These tests pin the
materialized output — values AND dict key order — for every category, so
a storage-layout change can never silently alter what consumers
(``records()``, the NACK audit, the Perfetto export, ``dump_flight``)
see.  They also pin the "disabled tracing is free" contract: a network
built without a recorder (or with every category disabled) must never
invoke an emitter at all.
"""

from types import SimpleNamespace

from repro.obs.record import (CC, DROP, ECN, FAULT, NACK, PACKET, PFC, QP,
                              QUEUE, Recorder)


class _Flow:
    src, dst, qp = 0, 1, 0

    def __str__(self):
        return "0->1#0"


def fake_packet(psn=5, ptype="data"):
    return SimpleNamespace(pkt_id=42, ptype=SimpleNamespace(value=ptype),
                           flow=_Flow(), psn=psn, epsn=0, path_index=2,
                           is_retx=False)


class TestGoldenEquality:
    """Materialized records match the historical dict-based output —
    same values, same dict key order — for every category."""

    def _one(self, rec, category):
        records = rec.records(category)
        assert len(records) == 1
        return records[0]

    def test_packet_hop(self):
        rec = Recorder()
        pkt = fake_packet()
        rec.packet_hop(100, "tor0/p1", pkt)
        t, cat, name, loc, data = self._one(rec, PACKET)
        assert (t, cat, name, loc) == (100, "packet", "hop", "tor0/p1")
        assert list(data.items()) == [
            ("pkt_id", 42), ("ptype", "data"), ("src", 0), ("dst", 1),
            ("qp", 0), ("psn", 5), ("epsn", 0), ("path_index", 2),
            ("is_retx", False)]
        # The pooled packet (and its flow) must not be referenced.
        assert not any(v is pkt or v is pkt.flow for v in data.values())

    def test_queue_sample(self):
        rec = Recorder()
        rec.queue_enq(7, "sw0/p1", 3000, 2)
        rec.queue_deq(9, "sw0/p1", 1500, 1)
        enq, deq = rec.records(QUEUE)
        assert enq[:4] == (7, "queue", "enq", "sw0/p1")
        assert list(enq[4].items()) == [("queued_bytes", 3000),
                                        ("backlog_pkts", 2)]
        assert deq[:4] == (9, "queue", "deq", "sw0/p1")
        assert list(deq[4].items()) == [("queued_bytes", 1500),
                                        ("backlog_pkts", 1)]
        assert rec.counts == {"enq": 1, "deq": 1}

    def test_ecn_mark(self):
        rec = Recorder()
        rec.ecn_mark(8, "sw0/p2", fake_packet(psn=9), 64_000)
        t, cat, name, loc, data = self._one(rec, ECN)
        assert (t, cat, name, loc) == (8, "ecn", "ecn_mark", "sw0/p2")
        assert list(data.items()) == [
            ("pkt_id", 42), ("psn", 9), ("flow", "0->1#0"),
            ("queued_bytes", 64_000)]

    def test_drop(self):
        rec = Recorder()
        rec.drop(9, "sw0/p3", fake_packet(psn=11), reason="tail")
        t, cat, name, loc, data = self._one(rec, DROP)
        assert (t, cat, name, loc) == (9, "drop", "drop", "sw0/p3")
        assert list(data.items()) == [
            ("pkt_id", 42), ("ptype", "data"), ("flow", "0->1#0"),
            ("psn", 11), ("reason", "tail")]

    def test_nack_emit(self):
        rec = Recorder()
        rec.nack_emit(10, "nic1", _Flow(), 4, 7)
        t, cat, name, loc, data = self._one(rec, NACK)
        assert (t, cat, name, loc) == (10, "nack", "nack_emit", "nic1")
        assert list(data.items()) == [
            ("flow", "0->1#0"), ("epsn", 4), ("trigger_psn", 7)]

    def test_nack_classify_minimal(self):
        rec = Recorder()
        rec.nack_classify(11, "sw0", _Flow(), 4, "pass")
        t, cat, name, loc, data = self._one(rec, NACK)
        assert (t, cat, name, loc) == (11, "nack", "nack_classify", "sw0")
        assert list(data.items()) == [
            ("flow", "0->1#0"), ("epsn", 4), ("verdict", "pass"),
            ("tpsn", None), ("n_paths", 0), ("ring_len", 0),
            ("armed", False)]

    def test_nack_classify_with_paths_and_guard(self):
        rec = Recorder()
        rec.nack_classify(12, "sw0", _Flow(), 10, "block", tpsn=13,
                          n_paths=4, ring_len=3, armed=True,
                          guard="epoch")
        _, _, _, _, data = self._one(rec, NACK)
        assert list(data.items()) == [
            ("flow", "0->1#0"), ("epsn", 10), ("verdict", "block"),
            ("tpsn", 13), ("n_paths", 4), ("ring_len", 3),
            ("armed", True), ("epsn_path", 2), ("tpsn_path", 1),
            ("guard", "epoch")]

    def test_nack_classify_paths_without_tpsn(self):
        rec = Recorder()
        rec.nack_classify(13, "sw0", _Flow(), 10, "block", n_paths=4)
        _, _, _, _, data = self._one(rec, NACK)
        assert data["epsn_path"] == 2
        assert data["tpsn_path"] is None

    def test_nack_compensate_and_cancel(self):
        rec = Recorder()
        rec.nack_compensate(14, "sw0", _Flow(), 4, 9)
        rec.nack_cancel(15, "sw0", _Flow(), 4, "arrived")
        comp, cancel = rec.records(NACK)
        assert comp[2] == "nack_compensate"
        assert list(comp[4].items()) == [
            ("flow", "0->1#0"), ("bepsn", 4), ("prove_psn", 9)]
        assert cancel[2] == "nack_cancel"
        assert list(cancel[4].items()) == [
            ("flow", "0->1#0"), ("bepsn", 4), ("reason", "arrived")]

    def test_pfc(self):
        rec = Recorder()
        rec.pfc(16, "tor0/p0", "pause", 180_000)
        t, cat, name, loc, data = self._one(rec, PFC)
        assert (t, cat, name, loc) == (16, "pfc", "pfc_pause", "tor0/p0")
        assert list(data.items()) == [("occupancy_bytes", 180_000)]

    def test_qp_state(self):
        rec = Recorder()
        rec.qp_state(17, "nic0/qp0", _Flow(), "rewind", snd_una=3,
                     snd_nxt=8)
        t, cat, name, loc, data = self._one(rec, QP)
        assert (t, cat, name, loc) == (17, "qp", "qp_state", "nic0/qp0")
        assert list(data.items()) == [
            ("flow", "0->1#0"), ("state", "rewind"), ("snd_una", 3),
            ("snd_nxt", 8)]

    def test_cc_rate(self):
        rec = Recorder()
        rec.cc_rate(18, "cc:0->1#0", 5.5e10)
        t, cat, name, loc, data = self._one(rec, CC)
        assert (t, cat, name, loc) == (18, "cc", "cc_rate", "cc:0->1#0")
        assert list(data.items()) == [("rate_bps", 5.5e10)]

    def test_fault(self):
        rec = Recorder()
        rec.fault(19, "tor0-spine1", "link_down", down_us=500.0)
        t, cat, name, loc, data = self._one(rec, FAULT)
        assert (t, cat, name, loc) == (19, "fault", "fault_link_down",
                                       "tor0-spine1")
        assert list(data.items()) == [("down_us", 500.0)]

    def test_str_flow_deferred_not_stale(self):
        """str(flow) happens at materialization, yet must reflect the
        flow identity at emit time — flows are immutable, so holding the
        object is safe and two emits with different flows stay distinct."""
        class _OtherFlow:
            src, dst, qp = 3, 7, 1

            def __str__(self):
                return "3->7#1"

        rec = Recorder()
        rec.nack_emit(1, "a", _Flow(), 1, None)
        rec.nack_emit(2, "b", _OtherFlow(), 2, None)
        first, second = rec.records(NACK)
        assert first[4]["flow"] == "0->1#0"
        assert second[4]["flow"] == "3->7#1"


class TestRetainedHotCategories:
    def test_retained_rows_equal_the_ring_in_emit_order(self):
        """Retaining the per-packet categories takes the captured-list
        branch of the emitter closures: every row is kept, in emit order,
        and is the same record the ring holds."""
        rec = Recorder(retain={PACKET, QUEUE})
        for i in range(6):
            rec.packet_hop(10 * i, "tor0", fake_packet(psn=i))
            rec.queue_enq(10 * i + 1, "tor0.p1", 1500 * (i + 1), i + 1)
            rec.queue_deq(10 * i + 2, "tor0.p1", 1500 * i, i)
        ring = rec.records()
        assert [r[0] for r in ring] == sorted(r[0] for r in ring)
        assert rec.records(PACKET) == [r for r in ring if r[1] == PACKET]
        assert rec.records(QUEUE) == [r for r in ring if r[1] == QUEUE]
        assert [r[2] for r in rec.records(QUEUE)] == ["enq", "deq"] * 6
        assert rec.counts == {"hop": 6, "enq": 6, "deq": 6}

    def test_retention_outlives_the_ring(self):
        rec = Recorder(ring_capacity=4, retain={PACKET, QUEUE})
        for i in range(10):
            rec.packet_hop(i, "tor0", fake_packet(psn=i))
            rec.queue_enq(i, "tor0.p1", 0, 0)
        assert len(rec.records()) == 4
        assert [r[4]["psn"] for r in rec.records(PACKET)] == list(range(10))
        assert [r[0] for r in rec.records(QUEUE)] == list(range(10))


class _CountingStub(Recorder):
    """Recorder with every category disabled that fails loudly if any
    emitter is ever invoked — the wiring must hand out ``None`` channels
    so instrumented hot paths skip the call entirely."""

    def __init__(self):
        super().__init__(categories=())
        self.calls = 0
        # The per-packet emitters are instance attributes (closures).
        self.packet_hop = self.queue_enq = self.queue_deq = self._boom

    def _boom(self, *a, **kw):
        self.calls += 1

    ecn_mark = drop = _boom
    nack_emit = nack_classify = nack_compensate = nack_cancel = _boom
    pfc = qp_state = cc_rate = fault = _boom


class TestDisabledTracingIsFree:
    def _run(self, recorder):
        from repro.harness.network import (Network, NetworkConfig,
                                           TopologySpec)
        from repro.sim.engine import MS, US

        topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                            nics_per_tor=2, link_bandwidth_bps=100e9,
                            link_delay_ns=US)
        net = Network(NetworkConfig(topology=topo, scheme="rps",
                                    transport="nic_sr", seed=3),
                      recorder=recorder)
        net.post_message(0, 2, 30_000)
        net.run(until_ns=MS)
        net.stop()
        return net

    def test_all_disabled_recorder_never_called(self):
        stub = _CountingStub()
        net = self._run(stub)
        assert stub.calls == 0
        assert stub.total_events() == 0
        # The hot-path channel slots hold None, not a disabled recorder.
        for tor in net.topology.tors:
            assert tor.rec is None
            for port in tor.ports:
                assert port._rec_enq is None
                assert port._rec_deq is None
                assert port._rec_ecn is None

    def test_none_recorder_matches_disabled_run(self):
        """recorder=None and an all-disabled recorder execute the exact
        same event sequence — tracing is observation-only either way."""
        events_none = self._run(None).sim.executed
        events_stub = self._run(_CountingStub()).sim.executed
        assert events_none == events_stub
