"""Tests for the Chrome/Perfetto trace_event export."""

import json
from types import SimpleNamespace

from repro.obs.perfetto import (export_chrome_trace, track_count,
                                validate_chrome_trace,
                                write_chrome_trace)
from repro.obs.record import Recorder


class _Flow:
    src, dst, qp = 0, 1, 0

    def __str__(self):
        return "0->1#0"


def sample_records():
    rec = Recorder()
    pkt = SimpleNamespace(pkt_id=1, ptype=SimpleNamespace(value="data"),
                          flow=_Flow(), psn=3, epsn=0, path_index=1,
                          is_retx=False)
    rec.packet_hop(1000, "tor0", pkt)
    rec.queue_enq(2000, "tor0:p1", 3000, 2)
    rec.cc_rate(3000, "cc:0->1#0", 50e9)
    rec.drop(4000, "tor0:p1", pkt, reason="tail")
    return rec.records()


class TestExport:
    def test_document_shape(self):
        doc = export_chrome_trace(sample_records(), label="unit")
        assert doc["displayTimeUnit"] == "ns"
        names = [e["name"] for e in doc["traceEvents"]]
        assert "process_name" in names
        # One track per distinct emitting location.
        assert track_count(doc) == 3

    def test_event_phases(self):
        doc = export_chrome_trace(sample_records())
        by_name = {}
        for ev in doc["traceEvents"]:
            by_name.setdefault(ev["name"], ev)
        assert by_name["hop"]["ph"] == "i"
        assert by_name["hop"]["s"] == "t"
        assert by_name["queue_depth tor0:p1"]["ph"] == "C"
        assert by_name["queue_depth tor0:p1"]["args"]["bytes"] == 3000
        assert by_name["cc_rate cc:0->1#0"]["args"]["gbps"] == 50.0

    def test_ts_is_microseconds(self):
        doc = export_chrome_trace(sample_records())
        hop = next(e for e in doc["traceEvents"] if e["name"] == "hop")
        assert hop["ts"] == 1.0  # 1000 ns

    def test_validates_clean(self):
        doc = export_chrome_trace(sample_records())
        assert validate_chrome_trace(doc) == []

    def test_json_serialisable(self):
        doc = export_chrome_trace(sample_records())
        assert json.loads(json.dumps(doc)) == doc


class TestWrite:
    def test_write_creates_parents(self, tmp_path):
        path = write_chrome_trace(sample_records(),
                                  tmp_path / "deep" / "t.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]

    def test_rejects_missing_events(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]

    def test_flags_bad_phase_and_missing_fields(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "nope", "pid": 1, "tid": 1},
            {"ph": "i", "name": "", "pid": 1, "tid": 1, "ts": 1, "s": "t"},
            {"ph": "i", "name": "ok", "pid": "one", "tid": 1, "ts": 1,
             "s": "t"},
            {"ph": "i", "name": "ok", "pid": 1, "tid": 1, "ts": -5,
             "s": "t"},
            {"ph": "i", "name": "ok", "pid": 1, "tid": 1, "ts": 1},
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {}},
        ]}
        errors = validate_chrome_trace(doc)
        assert len(errors) == 6

    def test_end_to_end_trace_validates(self):
        from repro.harness.tracing import run_traced_alltoall

        _, recorder = run_traced_alltoall(nodes=4, loss=0.01, seed=5,
                                          message_bytes=4000,
                                          retain_all=True)
        events = []
        for cat in sorted(recorder.retain):
            events.extend(recorder.records(cat))
        events.sort(key=lambda r: r[0])
        doc = export_chrome_trace(events)
        assert validate_chrome_trace(doc) == []
        assert track_count(doc) > 1
