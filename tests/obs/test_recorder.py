"""Tests for the trace recorder and flight-recorder ring."""

import gc
import json
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.harness.bench import DEADLINE_NS, build_scenario
from repro.obs.record import (ALL_CATEGORIES, NACK, PACKET, QUEUE,
                              InvariantError, Recorder, active_recorder,
                              check_invariant, dump_active_flight,
                              set_active)


class _Flow:
    src, dst, qp = 0, 1, 0

    def __str__(self):
        return "0->1#0"


def fake_packet(psn=5, ptype="data"):
    return SimpleNamespace(pkt_id=42, ptype=SimpleNamespace(value=ptype),
                           flow=_Flow(), psn=psn, epsn=0, path_index=2,
                           is_retx=False)


def fake_flow():
    return _Flow()


class TestCategories:
    def test_default_enables_all(self):
        rec = Recorder()
        assert rec.enabled == frozenset(ALL_CATEGORIES)
        for cat in ALL_CATEGORIES:
            assert rec.channel(cat) is rec

    def test_disabled_channel_is_none(self):
        rec = Recorder(categories=(NACK,))
        assert rec.channel(NACK) is rec
        assert rec.channel(PACKET) is None

    def test_empty_categories_disable_everything(self):
        rec = Recorder(categories=())
        assert all(rec.channel(c) is None for c in ALL_CATEGORIES)

    def test_unknown_category_raises(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            Recorder(categories=("bogus",))
        with pytest.raises(ValueError, match="unknown retain"):
            Recorder(retain=("bogus",))

    def test_retain_restricted_to_enabled(self):
        rec = Recorder(categories=(PACKET,), retain={NACK})
        assert rec.retain == frozenset()


class TestRingAndRetention:
    def test_ring_is_bounded_counts_are_not(self):
        rec = Recorder(ring_capacity=8)
        for i in range(20):
            rec.queue_enq(i, "tor0:p0", i * 100, i)
        assert len(rec.records()) == 8
        assert rec.total_events() == 20
        # The ring keeps the *last* N events.
        assert rec.records()[0][0] == 12

    def test_retained_category_kept_in_full(self):
        rec = Recorder(ring_capacity=4, retain={QUEUE})
        for i in range(20):
            rec.queue_enq(i, "tor0:p0", 0, 0)
        assert len(rec.records(QUEUE)) == 20

    def test_unretained_query_falls_back_to_ring(self):
        rec = Recorder(ring_capacity=64)
        rec.queue_enq(1, "a", 0, 0)
        rec.pfc(2, "b", "pause", 999)
        assert len(rec.records(QUEUE)) == 1
        assert rec.records("pfc")[0][2] == "pfc_pause"

    def test_counts_summary_has_total(self):
        rec = Recorder()
        rec.drop(1, "tor0:p1", fake_packet(), reason="tail")
        rec.drop(2, "tor0:p1", fake_packet(), reason="loss")
        summary = rec.counts_summary()
        assert summary["drop"] == 2
        assert summary["total"] == 2


class TestTypedEmitters:
    def test_packet_hop_copies_scalars_only(self):
        rec = Recorder()
        pkt = fake_packet()
        rec.packet_hop(10, "tor0", pkt)
        t, cat, name, loc, data = rec.records()[0]
        assert (t, cat, name, loc) == (10, PACKET, "hop", "tor0")
        assert data["psn"] == 5 and data["path_index"] == 2
        assert not any(v is pkt or v is pkt.flow for v in data.values())

    def test_nack_classify_computes_path_indices(self):
        rec = Recorder()
        rec.nack_classify(10, "tor1", fake_flow(), 13, "blocked",
                          tpsn=14, n_paths=8, ring_len=3, armed=True)
        data = rec.records()[0][4]
        assert data["epsn_path"] == 13 % 8
        assert data["tpsn_path"] == 14 % 8

    def test_nack_classify_guard_only_when_present(self):
        rec = Recorder()
        rec.nack_classify(1, "t", fake_flow(), 1, "blocked")
        rec.nack_classify(2, "t", fake_flow(), 2, "blocked",
                          guard="epsn_in_ring")
        first, second = (r[4] for r in rec.records())
        assert "guard" not in first
        assert second["guard"] == "epsn_in_ring"


class TestFlightDump:
    def test_dump_roundtrips_as_jsonl(self, tmp_path):
        rec = Recorder()
        rec.queue_enq(5, "tor0:p0", 1500, 1)
        rec.cc_rate(6, "cc:0->1#0", 25e9)
        path = rec.dump_flight(tmp_path / "sub" / "f.jsonl",
                               reason="unit-test")
        lines = [json.loads(ln) for ln in
                 path.read_text().splitlines()]
        header, events = lines[0], lines[1:]
        assert header["meta"] == "repro-flight-recorder"
        assert header["reason"] == "unit-test"
        assert header["events"] == 2
        assert events[0] == {"t": 5, "cat": "queue", "ev": "enq",
                             "loc": "tor0:p0", "queued_bytes": 1500,
                             "backlog_pkts": 1}
        assert rec.dumps == [path]

    def test_default_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        rec = Recorder()
        rec.queue_enq(1, "a", 0, 0)
        path = rec.dump_flight(reason="env-test")
        assert path.parent == tmp_path
        assert path.name.startswith("flight-env-test-")


class TestActiveRegistry:
    def test_dump_active_flight(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        rec = Recorder()
        rec.queue_enq(1, "a", 0, 0)
        set_active(rec)
        try:
            path = dump_active_flight("probe")
            assert path is not None and path.exists()
        finally:
            set_active(None)

    def test_no_active_recorder_is_a_noop(self):
        set_active(None)
        assert active_recorder() is None
        assert dump_active_flight("nothing") is None

    def test_registry_is_weak(self):
        rec = Recorder()
        set_active(rec)
        assert active_recorder() is rec
        del rec
        gc.collect()
        assert active_recorder() is None
        set_active(None)


def _observed(name, recorder):
    """Executed events, summary (minus trace keys) and per-flow counters
    of one quick scenario run under ``recorder``."""
    net = build_scenario(name, quick=True, recorder=recorder)
    net.run(until_ns=DEADLINE_NS)
    summary = {k: v for k, v in net.metrics.summary().items()
               if not k.startswith("trace_")}
    flows = {flow: asdict(stats) for flow, stats in net.metrics.flows.items()}
    return net.sim.executed, summary, flows


@pytest.mark.parametrize("name", ["alltoall", "lossy"])
def test_recorder_is_observation_only(name):
    """An all-category recorder watches a run without changing it."""
    untraced = _observed(name, None)
    recorder = Recorder()
    try:
        traced = _observed(name, recorder)
    finally:
        set_active(None)
    assert recorder.total_events() > 0
    assert traced == untraced


class TestCheckInvariant:
    def test_passing_invariant_is_silent(self):
        check_invariant(True, "fine")

    def test_failing_invariant_dumps_and_raises(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        rec = Recorder()
        rec.queue_enq(1, "a", 0, 0)
        set_active(rec)
        try:
            with pytest.raises(InvariantError) as excinfo:
                check_invariant(False, "psn out of window")
        finally:
            set_active(None)
        message = str(excinfo.value)
        assert "psn out of window" in message
        assert "flight recorder:" in message
        dump = rec.dumps[-1]
        assert dump.exists()
        header = json.loads(dump.read_text().splitlines()[0])
        assert header["reason"] == "invariant"

    def test_invariant_error_is_assertion_error(self):
        assert issubclass(InvariantError, AssertionError)
