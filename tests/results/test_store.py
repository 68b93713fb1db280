"""Results store: ingest -> query -> re-emit round trips.

The core property: ingesting a versioned document and re-emitting it
reconstructs the exact bytes (``json.dumps`` equality with matching
options), for synthetic documents across the whole metric space — the
store is lossless, not a lossy summary.
"""

import json
import math
import os
import re
import signal
import sqlite3
import subprocess
import sys
from contextlib import closing

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.harness.arena import (arena_job_specs, build_arena_doc,
                                 validate_arena_doc)
from repro.harness.jobs import JobOutcome, JobSpec
from repro.faults.campaign import FAULTS_SCHEMA, validate_faults_doc
from repro.results import (IngestError, ResultsStore, detect_doc_kind,
                           emit_arena_doc, emit_doc, emit_faults_doc,
                           ingest_doc, ingest_file)
from repro.results.query import (arena_runs, latest_run_id, list_runs,
                                 summary, table_counts)
from repro.results.server import check_pages
from repro.results.store import JOB_READ_CHUNK, connect_readonly

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Synthetic documents (valid, no simulation)
# ----------------------------------------------------------------------
def fake_cell_metrics(i: int, *, slowdown: float = None) -> dict:
    return {
        "completed": True,
        "tail_ns": 1000 + i,
        "mean_slowdown": (round(1.0 + 0.1 * i, 4)
                          if slowdown is None else slowdown),
        "goodput_gbps": round(20.0 - i, 3),
        "reorder_rate": round(0.01 * i, 4),
        "nack_validity": 1.0,
        "nacks": i,
        "drops": i,
        "nacks_blocked": 0,
        "retransmissions": i,
    }


def make_arena_doc(lbs=("ecmp", "reps"), seeds=(1,),
                   metrics=None) -> dict:
    """A valid ``repro-arena-v1`` document from synthetic metrics."""
    specs = arena_job_specs(lbs=lbs, transports=("nic_sr",),
                            ccs=("dcqcn",), workloads=("alltoall",),
                            topologies={"leaf_spine": {
                                "kind": "leaf_spine", "num_tors": 4,
                                "num_spines": 2, "nics_per_tor": 2}},
                            seeds=seeds, quick=True)
    outcomes = {}
    for i, spec in enumerate(specs):
        result = (metrics[i] if metrics is not None
                  else fake_cell_metrics(i))
        outcomes[spec.spec_hash] = JobOutcome(spec=spec, status="done",
                                              result=result)
    doc = build_arena_doc(specs, outcomes)
    assert validate_arena_doc(doc) == []
    return doc


def make_faults_doc(seeds=(1, 2)) -> dict:
    cells = []
    for seed in seeds:
        cells.append({
            "version": 1, "scenario": "synthetic-flap", "seed": seed,
            "workload": {"nodes": 8}, "completed": True,
            "completion_ns": 100_000 + seed,
            "baseline_completion_ns": 90_000,
            "tail_stretch": round(1.1 + 0.01 * seed, 6),
            "goodput": {"window_ns": 10_000, "windows": 10,
                        "pre_fault_gbps": 80.0, "dip_gbps": 40.0,
                        "dip_frac": 0.5, "recovery_ns": 20_000},
            "faults": {"scheduled": 2, "applied": 2, "first_ns": 1000,
                       "last_ns": 2000, "converge_ns": 0,
                       "fault_events_recorded": 2},
            "nacks": {"decisions": 4, "unexplained": 0},
            "drops": 3, "retransmissions": 5,
            "baseline_drops": 0, "baseline_retransmissions": 0,
        })
    doc = {"schema": FAULTS_SCHEMA, "scenario": "synthetic-flap",
           "duration_us": 200.0, "seeds": list(seeds), "cells": cells,
           "failures": [], "validation_problems": [],
           "aggregate": {"completed": len(cells), "cells": len(cells),
                         "unexplained_nacks": 0,
                         "mean_recovery_ns": 20_000,
                         "worst_dip_frac": 0.5,
                         "worst_tail_stretch": 1.12}}
    assert validate_faults_doc(doc) == []
    return doc


def make_bench_doc() -> dict:
    return {
        "schema_version": 3, "quick": True, "python": "3.12.0",
        "scenarios": {
            "alltoall-lossy": {"scenario": "alltoall-lossy",
                               "engine": "calendar", "events": 50_000,
                               "wall_s": 0.5, "events_per_sec": 100_000,
                               "sim_time_ns": 1_000_000,
                               "completed": True}},
        "heap_baseline": {"scenario": "alltoall-lossy", "engine": "heap",
                          "events": 50_000, "wall_s": 1.0,
                          "events_per_sec": 50_000},
        "speedup_vs_heap": 2.0,
        "tracing": {"scenario": "alltoall-lossy", "events": 50_000,
                    "wall_s": 0.6, "events_per_sec": 83_000,
                    "overhead_ratio": 1.2},
    }


def _scenario(name: str, events: int, wall_s: float, events_per_sec: int,
              sim_time_ns: int) -> dict:
    return {"scenario": name, "engine": "calendar", "events": events,
            "wall_s": wall_s, "events_per_sec": events_per_sec,
            "sim_time_ns": sim_time_ns, "completed": True}


#: The last bench history document the repo tracked, value for value.
LAST_BENCH_HISTORY = {
    "schema_version": 5,
    "generated_by": "python -m repro bench",
    "quick": False,
    "python": "3.11.7",
    "engine": {"kind": "calendar", "bucket_ns": 64},
    "measurement": {"repeats": 3, "estimator": "min wall time",
                    "fresh_process": True, "gc_disabled": True},
    "scenarios": {
        "incast": _scenario("incast", 178626, 0.5054, 353427, 11858380),
        "alltoall": _scenario("alltoall", 1257712, 2.3247, 541021, 329929),
        "lossy": _scenario("lossy", 185194, 0.5329, 347499, 111022156),
    },
    "tracing": {"scenario": "alltoall", "events": 1257712, "wall_s": 2.759,
                "events_per_sec": 455856, "overhead_ratio": 1.187},
}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2)


def json_paths(node, prefix=()):
    """The path of every value in a JSON document, containers included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def json_type(value) -> type:
    """JSON has one number type; ``bool`` is an ``int`` to Python only."""
    return float if type(value) is int else type(value)


DOC_MAKERS = (make_arena_doc, make_faults_doc, make_bench_doc)
DOC_FIELDS = [(make, path) for make in DOC_MAKERS
              for path in json_paths(make())]
DETAIL_TABLES = ("runs", "arena_cells", "arena_ranking", "fault_cells",
                 "bench_scenarios")


@settings(max_examples=300, deadline=None)
@example(field=(make_faults_doc, ("cells", 0, "nacks", "unexplained")),
         value="x", delete=False)
@example(field=(make_bench_doc,
                ("scenarios", "alltoall-lossy", "events_per_sec")),
         value="fast", delete=False)
@example(field=(make_bench_doc, ("tracing", "overhead_ratio")),
         value="x", delete=False)
@example(field=(make_bench_doc, ("speedup_vs_heap",)), value="x",
         delete=False)
@example(field=(make_bench_doc, ("tracing",)), value=None, delete=False)
@given(field=st.sampled_from(DOC_FIELDS),
       value=st.sampled_from([None, True, 7, 2.5, "x", [1], {"x": 1}]),
       delete=st.booleans())
def test_ingest_of_a_mistyped_field_is_all_or_nothing(
        tmp_path_factory, field, value, delete):
    """ROADMAP item 7's ingester property: one field of a valid document
    deleted or replaced by a value of another JSON type either raises
    ``IngestError`` and leaves no row anywhere, or ingests, and then
    every dashboard page and API twin answers 200 (item 18: a document
    the store accepts renders)."""
    make, path = field
    doc = make()
    parent = _at(doc, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        assume(json_type(parent[path[-1]]) != json_type(value))
        parent[path[-1]] = value

    def rows(store):
        return {table: store.conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in DETAIL_TABLES}

    db = str(tmp_path_factory.mktemp("ingest") / "r.sqlite")
    with ResultsStore(db) as store:
        ingest_doc(store, make_bench_doc(), source="before")
        before = rows(store)
        try:
            ingest_doc(store, doc)
        except IngestError:
            assert rows(store) == before    # committed or pending
            return
        assert rows(store)["runs"] == before["runs"] + 1
    assert check_pages(db) == []


#: Wrong-typed values for the checked fields of an arena cell or ranking
#: row: a string for a number, a number for a string, and a bool, which
#: is no number.  None may reach the store: the dashboard renders what
#: it holds, and a string metric there is an HTTP 500.
ARENA_MISTYPED = [
    *[("cells", "cell[0]", field, "x")
      for field in ("mean_slowdown", "goodput_gbps", "reorder_rate",
                    "nack_validity", "seed", "tail_ns", "nacks",
                    "completed")],
    ("cells", "cell[0]", "mean_slowdown", True),
    ("cells", "cell[0]", "lb", 7),
    ("cells", "cell[0]", "spec_hash", 7),
    *[("ranking", "ranking[0]", field, "x")
      for field in ("mean_goodput_gbps", "mean_nack_validity",
                    "completed_cells")],
    ("ranking", "ranking[0]", "mean_reorder_rate", True),
    ("ranking", "ranking[0]", "transport", 7),
]


@pytest.mark.parametrize("section, label, field, value", ARENA_MISTYPED)
def test_mistyped_arena_field_is_refused_before_any_row(
        section, label, field, value):
    doc = make_arena_doc()
    doc[section][0][field] = value
    with ResultsStore(":memory:") as store:
        with pytest.raises(IngestError,
                           match=re.escape(f"{label}.{field} is not")):
            ingest_doc(store, doc)
        assert all(store.conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0] == 0
            for table in DETAIL_TABLES)


#: Numbers ``json`` reads but JSON has not: sqlite would store a NaN as
#: NULL (``/faults`` shows "-") and re-emit it as a bare ``NaN`` token.
NON_FINITE_FIELDS = [
    (make_arena_doc, ("cells", 0, "goodput_gbps"), "cell[0].goodput_gbps"),
    (make_arena_doc, ("ranking", 0, "mean_nack_validity"),
     "ranking[0].mean_nack_validity"),
    (make_faults_doc, ("cells", 0, "tail_stretch"), "cell[0].tail_stretch"),
    (make_faults_doc, ("cells", 0, "goodput", "dip_frac"),
     "cell[0].goodput.dip_frac"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, path, label", NON_FINITE_FIELDS)
def test_non_finite_number_is_refused_before_any_row(make, path, label,
                                                      value):
    doc = make()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with ResultsStore(":memory:") as store:
        with pytest.raises(IngestError,
                           match=re.escape(f"{label} is not finite")):
            ingest_doc(store, doc)
        assert all(store.conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0] == 0
            for table in DETAIL_TABLES)


@pytest.mark.parametrize("make", [make_arena_doc, make_faults_doc])
def test_unknown_top_level_field_is_refused_by_name(make):
    """The store keeps a fixed set of top-level keys per re-emittable
    family; it used to drop any other silently, so the re-emitted
    document lost it."""
    doc = make()
    doc["extra"] = {"x": 1}
    with ResultsStore(":memory:") as store:
        with pytest.raises(IngestError, match="unknown field 'extra'"):
            ingest_doc(store, doc)
        assert all(store.conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0] == 0
            for table in DETAIL_TABLES)


#: Shapes the store once took and then mis-counted or failed to render:
#: a cell without ``nacks.unexplained`` counted as 0 unexplained NACKs,
#: a string count or rate broke ``/faults`` or ``/bench`` with an HTTP
#: 500, ``completed: "no"`` counted as completed, and a string seed was
#: stored as text.
MISSHAPEN = [
    pytest.param(make_faults_doc, ("cells", 0, "nacks", "unexplained"),
                 None, "cell[0].nacks missing fields: ['unexplained']",
                 id="faults-unexplained-missing"),
    pytest.param(make_faults_doc, ("cells", 0, "nacks", "unexplained"),
                 "x", "cell[0].nacks.unexplained is not an int",
                 id="faults-unexplained-string"),
    pytest.param(make_faults_doc, ("cells", 0, "completed"), "no",
                 "cell[0].completed is not a bool",
                 id="faults-completed-string"),
    pytest.param(make_faults_doc, ("cells", 0, "seed"), "two",
                 "cell[0].seed is not an int", id="faults-seed-string"),
    pytest.param(make_bench_doc,
                 ("scenarios", "alltoall-lossy", "events_per_sec"), "fast",
                 "scenarios.alltoall-lossy.events_per_sec is not a number",
                 id="bench-events-per-sec-string"),
]


@pytest.mark.parametrize("make, path, value, problem", MISSHAPEN)
def test_misshapen_document_is_refused_by_field(make, path, value,
                                                problem):
    """``value`` ``None`` deletes the field."""
    doc = make()
    parent = _at(doc, path[:-1])
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with ResultsStore(":memory:") as store:
        with pytest.raises(IngestError, match=re.escape(problem)):
            ingest_doc(store, doc)
        assert all(store.conn.execute(
            f"SELECT COUNT(*) FROM {table}").fetchone()[0] == 0
            for table in DETAIL_TABLES)


def object_paths(doc: dict) -> list[tuple]:
    """The path of the document and of every object in it."""
    return [()] + [path for path in json_paths(doc)
                   if isinstance(_at(doc, path), dict)]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=300, deadline=None)
@given(make=st.sampled_from(DOC_MAKERS), data=st.data())
def test_reshaped_document_ingests_or_names_a_field(make, data):
    """ROADMAP item 18: a valid document with fields deleted, copied
    under an extra name or added either ingests or raises
    ``IngestError`` naming a field it touched, and a refused document
    leaves no row anywhere.  Nothing else is raised.  An ingested arena
    or faults document re-emits byte for byte, so a top-level key the
    store cannot keep is refused, not dropped."""
    doc = make()
    touched = set()
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        path = data.draw(st.sampled_from(object_paths(doc)), label="path")
        node = _at(doc, path)
        touched.update(key for key in path if isinstance(key, str))
        op = data.draw(st.sampled_from(
            ("delete", "copy", "add") if node else ("add",)), label="op")
        name = data.draw(st.sampled_from(
            ("extra", "lb_copy", "seed2", "cells_", "Schema")),
            label="name")
        if op == "add":
            node[name] = data.draw(st.sampled_from(
                (None, 1, "x", [], {"x": 1})), label="value")
            touched.add(name)
            continue
        key = data.draw(st.sampled_from(sorted(node)), label="key")
        touched.add(key)
        if op == "delete":
            del node[key]
        else:
            node[name] = json.loads(json.dumps(node[key]))
            touched.add(name)

    with ResultsStore(":memory:") as store:
        try:
            ingest_doc(store, doc)
        except IngestError as exc:
            assert any(key in str(exc) for key in touched), str(exc)
            assert all(store.conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0] == 0
                for table in DETAIL_TABLES)
        else:
            assert store.conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0] == 1
            if make is not make_bench_doc:
                assert dumps(emit_doc(store, 1)) == dumps(doc)


# ----------------------------------------------------------------------
# Job-result cache table
# ----------------------------------------------------------------------
class TestJobResults:
    def test_put_get_roundtrip_is_canonical(self, tmp_path):
        spec = JobSpec(kind="callable", seed=3,
                       params={"target": "m:f", "kwargs": {"b": 2, "a": 1}})
        payload = {"value": [1.5, {"z": 1, "a": 2}]}
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            assert store.get_job_result(spec.spec_hash) is None
            store.put_job_result(spec, payload)
            got = store.get_job_result(spec.spec_hash)
        assert got == payload
        # Same canonical JSON the runner's other paths produce.
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(payload, sort_keys=True)

    def test_replace_updates_in_place(self, tmp_path):
        spec = JobSpec(kind="callable", seed=1, params={"target": "m:f"})
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            store.put_job_result(spec, {"value": 1})
            store.put_job_result(spec, {"value": 2})
            assert store.get_job_result(spec.spec_hash) == {"value": 2}
            assert store.counts()["job_results"] == 1

    def test_batched_read_is_one_statement_per_chunk(self, tmp_path):
        """2 000 specs, every fourth never stored: ceil(2000 / chunk)
        SELECTs, the per-hash answers, misses absent, and a repeated
        hash read once."""
        specs = [JobSpec(kind="callable", seed=seed, params={"t": "m:f"})
                 for seed in range(2_000)]
        hashes = [spec.spec_hash for spec in specs]
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            for seed, spec in enumerate(specs):
                if seed % 4:
                    store.put_job_result(spec, {"value": seed})
            expected = {h: store.get_job_result(h) for h in hashes}
            expected = {h: r for h, r in expected.items() if r is not None}
            statements = []
            store.conn.set_trace_callback(statements.append)
            try:
                got = store.get_job_results(hashes + hashes[:50])
            finally:
                store.conn.set_trace_callback(None)
        assert got == expected
        assert len(got) == 1_500 and hashes[0] not in got
        selects = [sql for sql in statements if sql.startswith("SELECT")]
        assert len(selects) == math.ceil(2_000 / JOB_READ_CHUNK) == 3
        assert sum(sql.count("'") // 2 for sql in selects) == 2_000

    def test_batched_read_refuses_a_text_that_is_not_one_object(
            self, tmp_path):
        """Rows are decoded as one joined array; a stored text holding
        two objects must fail loudly, not shift every later payload onto
        the wrong hash."""
        one, two = (JobSpec(kind="callable", seed=s, params={"t": "m:f"})
                    for s in (1, 2))
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            store.put_job_result(one, {"value": 1})
            store.put_job_result(two, {"value": 2})
            store.conn.execute(
                "UPDATE job_results SET result_json=? WHERE spec_hash=?",
                ('{"value":1},{"value":3}', one.spec_hash))
            with pytest.raises(ValueError):
                store.get_job_results([one.spec_hash, two.spec_hash])

    def test_batched_read_of_nothing_runs_no_statement(self, tmp_path):
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            statements = []
            store.conn.set_trace_callback(statements.append)
            assert store.get_job_results([]) == {}
            assert store.get_job_results(["0123456789abcdef"]) == {}
        assert len(statements) == 1

    def test_schema_version_mismatch_refuses(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        with ResultsStore(path) as store:
            store.conn.execute("PRAGMA user_version=99")
            store.conn.commit()
        with pytest.raises(RuntimeError, match="schema v99"):
            ResultsStore(path)

    def test_readonly_connection_rejects_writes(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        ResultsStore(path).close()
        with closing(connect_readonly(path)) as conn:
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("INSERT INTO runs (schema, name, ingested_s) "
                             "VALUES ('x', 'y', 0)")

    def test_readonly_requires_existing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            connect_readonly(str(tmp_path / "absent.sqlite"))

    def test_commit_survives_sigkill(self, tmp_path):
        """``synchronous=NORMAL`` under WAL: the commit has reached the
        operating system when ``put_job_result`` returns, so a process
        killed right after it (no close, no checkpoint) loses nothing."""
        path = str(tmp_path / "r.sqlite")
        child = (
            "import os, signal, sys\n"
            "from repro.harness.jobs import JobSpec\n"
            "from repro.results import ResultsStore\n"
            "store = ResultsStore(sys.argv[1])\n"
            "spec = JobSpec(kind='callable', seed=5, params={'t': 'm:f'})\n"
            "store.put_job_result(spec, {'value': 42})\n"
            "print(spec.spec_hash, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        done = subprocess.run([sys.executable, "-c", child, path], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == -signal.SIGKILL, done.stderr
        spec_hash = done.stdout.strip()
        with closing(connect_readonly(path)) as conn:
            row = conn.execute(
                "SELECT result_json FROM job_results WHERE spec_hash=?",
                (spec_hash,)).fetchone()
            assert json.loads(row["result_json"]) == {"value": 42}
            assert conn.execute("PRAGMA integrity_check").fetchone()[0] \
                == "ok"
        with ResultsStore(path) as store:
            assert store.conn.execute(
                "PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
            assert store.get_job_result(spec_hash) == {"value": 42}


# ----------------------------------------------------------------------
# Ingest + re-emit round trips
# ----------------------------------------------------------------------
class TestArenaRoundTrip:
    def test_detect(self):
        assert detect_doc_kind(make_arena_doc()) == "arena"

    def test_ingest_emit_byte_identical(self, tmp_path):
        doc = make_arena_doc(lbs=("ecmp", "reps", "rps"), seeds=(1, 2))
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            receipt = ingest_doc(store, doc, source="test")
            out = emit_arena_doc(store, receipt["run_id"])
        assert dumps(out) == dumps(doc)
        assert receipt["cells"] == len(doc["cells"])

    def test_ingest_file(self, tmp_path):
        doc = make_arena_doc()
        path = tmp_path / "arena.json"
        path.write_text(dumps(doc))
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            receipt = ingest_file(store, str(path))
            assert dumps(emit_arena_doc(store, receipt["run_id"])) \
                == dumps(doc)

    def test_incomplete_cells_still_ingest(self, tmp_path):
        # validate_arena_doc flags censored cells as problems, but an
        # incomplete cell is data, not corruption — ingest keeps it.
        doc = make_arena_doc()
        doc["cells"][0]["completed"] = False
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            receipt = ingest_doc(store, doc)
            assert dumps(emit_arena_doc(store, receipt["run_id"])) \
                == dumps(doc)

    def test_malformed_doc_rejected_before_any_row(self, tmp_path):
        doc = make_arena_doc()
        del doc["cells"][0]["spec_hash"]
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            with pytest.raises(IngestError):
                ingest_doc(store, doc)
            assert store.counts()["runs"] == 0
            assert store.counts()["arena_cells"] == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        min_size=2, max_size=2))
    def test_roundtrip_property_over_metric_space(self, tmp_path_factory,
                                                  slowdowns):
        """Any finite metric values survive ingest->emit exactly (JSON
        float round-trips are lossless)."""
        metrics = [fake_cell_metrics(i, slowdown=s)
                   for i, s in enumerate(slowdowns)]
        doc = make_arena_doc(lbs=("ecmp", "reps"), metrics=metrics)
        tmp = tmp_path_factory.mktemp("prop")
        with ResultsStore(str(tmp / "r.sqlite")) as store:
            receipt = ingest_doc(store, doc)
            out = emit_arena_doc(store, receipt["run_id"])
        assert dumps(out) == dumps(doc)


class TestFaultsRoundTrip:
    def test_detect(self):
        assert detect_doc_kind(make_faults_doc()) == "faults"

    def test_ingest_emit_byte_identical(self, tmp_path):
        doc = make_faults_doc(seeds=(1, 2, 3))
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            receipt = ingest_doc(store, doc, source="test")
            out = emit_faults_doc(store, receipt["run_id"])
        assert dumps(out) == dumps(doc)

    def test_validate_faults_doc_catches_shape_errors(self):
        doc = make_faults_doc()
        del doc["cells"][0]["goodput"]
        assert any("missing fields" in p
                   for p in validate_faults_doc(doc))
        assert validate_faults_doc({"schema": "nope"})
        assert validate_faults_doc([1, 2]) == ["document is not an object"]


class TestBenchIngest:
    def test_detect(self):
        assert detect_doc_kind(make_bench_doc()) == "bench"

    def test_ingest_normalises_schema_and_rows(self, tmp_path):
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            receipt = ingest_doc(store, make_bench_doc())
            run = store.run_row(receipt["run_id"])
            assert run["schema"] == "repro-bench-v3"
            engines = {r["engine"] for r in store.conn.execute(
                "SELECT engine FROM bench_scenarios WHERE run_id=?",
                (receipt["run_id"],))}
        # scenario row + heap baseline + traced run
        assert engines == {"calendar", "heap", "traced"}

    def test_tracked_bench_history_ingests(self, tmp_path):
        """The last bench history file the repo tracked (schema v5, three
        scenarios plus the traced run) is still a valid ingest source."""
        path = tmp_path / "bench-history.json"
        path.write_text(json.dumps(LAST_BENCH_HISTORY, indent=2))
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            receipt = ingest_file(store, str(path))
            assert receipt["kind"] == "bench"
            assert receipt["scenarios"] == 3
            engines = sorted(r["engine"] for r in store.conn.execute(
                "SELECT engine FROM bench_scenarios"))
        assert engines == ["calendar"] * 3 + ["traced"]

    def test_bench_runs_do_not_re_emit(self, tmp_path):
        from repro.results import emit_doc
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            arena = ingest_doc(store, make_arena_doc())["run_id"]
            bench = ingest_doc(store, make_bench_doc())["run_id"]
            assert emit_doc(store, arena) == emit_arena_doc(store, arena)
            for run_id in (bench, 99):
                with pytest.raises(IngestError, match="re-emittable"):
                    emit_doc(store, run_id)
            with pytest.raises(IngestError, match="ingested faults run"):
                emit_faults_doc(store, arena)

    def test_v4_doc_without_the_heap_keys_ingests(self, tmp_path):
        doc = make_bench_doc()
        doc["schema_version"] = 4
        del doc["heap_baseline"], doc["speedup_vs_heap"]
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            receipt = ingest_doc(store, doc)
            assert store.run_row(receipt["run_id"])["schema"] \
                == "repro-bench-v4"
            engines = {r["engine"] for r in store.conn.execute(
                "SELECT engine FROM bench_scenarios")}
        assert engines == {"calendar", "traced"}

    def test_scenario_missing_a_field_is_rejected(self, tmp_path):
        doc = make_bench_doc()
        del doc["scenarios"]["alltoall-lossy"]["wall_s"]
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            with pytest.raises(IngestError, match="missing fields"):
                ingest_doc(store, doc)
            assert store.counts()["runs"] == 0

    def test_unknown_doc_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="unrecognised"):
            detect_doc_kind({"schema": "wat-v9"})
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            with pytest.raises(IngestError):
                ingest_doc(store, {"hello": 1})


# ----------------------------------------------------------------------
# Query layer over a populated store
# ----------------------------------------------------------------------
class TestQueries:
    @pytest.fixture()
    def conn(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        with ResultsStore(path) as store:
            ingest_doc(store, make_arena_doc(), source="a1")
            ingest_doc(store, make_arena_doc(), source="a2")
            ingest_doc(store, make_faults_doc(), source="f1")
            ingest_doc(store, make_bench_doc(), source="b1")
        with closing(connect_readonly(path)) as conn:
            yield conn

    def test_summary_counts(self, conn):
        from repro.results.query import summary
        s = summary(conn)
        assert s["arena_runs"] == 2
        assert s["fault_runs"] == 1
        assert s["bench_runs"] == 1

    def test_ranking_over_time_aligns_runs(self, conn):
        from repro.results.query import ranking_over_time
        data = ranking_over_time(conn)
        assert len(data["run_ids"]) == 2
        for series in data["series"]:
            assert len(series["ranks"]) == 2
            assert series["latest_rank"] == series["ranks"][-1]
        # Identical docs -> identical ranks across both runs.
        assert [s["ranks"][0] for s in data["series"]] == \
            [s["ranks"][1] for s in data["series"]]

    def test_cell_detail_history_spans_runs(self, conn):
        from repro.results.query import arena_cells, cell_detail
        cells = arena_cells(conn, 1)
        detail = cell_detail(conn, 1, cells[0]["spec_hash"])
        assert detail["cell"] == cells[0]
        assert [h["run_id"] for h in detail["history"]] == [1, 2]
        assert cell_detail(conn, 1, "0" * 16) is None

    def test_fault_panels_aggregate(self, conn):
        from repro.results.query import fault_panels
        panels = fault_panels(conn)
        assert len(panels) == 1
        agg = panels[0]["aggregate"]
        assert agg["cells"] == 2
        assert agg["unexplained_nacks"] == 0
        assert agg["mean_recovery_ns"] == 20_000
        # The campaign's own aggregate, over the stored cells.
        assert agg == make_faults_doc()["aggregate"]

    def test_bench_series(self, conn):
        from repro.results.query import bench_series
        data = bench_series(conn)
        assert len(data["run_ids"]) == 1
        keys = {(s["scenario"], s["engine"]) for s in data["series"]}
        assert ("alltoall-lossy", "calendar") in keys
        assert data["runs"][0]["tracing_overhead"] == 1.2


# ----------------------------------------------------------------------
# Set-based page queries against their per-row oracles
# ----------------------------------------------------------------------
def arena_runs_per_run(conn) -> list[dict]:
    """``arena_runs`` as it was computed before it became one grouped
    statement: two statements per ingested run.  Kept as the oracle."""
    rows = []
    for run in list_runs(conn):
        if not run["schema"].startswith("repro-arena"):
            continue
        best = conn.execute(
            "SELECT lb, transport, mean_slowdown FROM arena_ranking "
            "WHERE run_id=? AND rank=1", (run["run_id"],)).fetchone()
        cells = conn.execute(
            "SELECT COUNT(*), SUM(completed) FROM arena_cells "
            "WHERE run_id=?", (run["run_id"],)).fetchone()
        rows.append(dict(
            run,
            cells=cells[0], completed_cells=cells[1] or 0,
            best_lb=best["lb"] if best else None,
            best_transport=best["transport"] if best else None,
            best_slowdown=best["mean_slowdown"] if best else None))
    return rows


SEPARATE_COUNTS = {
    "job_results": "SELECT COUNT(*) FROM job_results",
    "runs": "SELECT COUNT(*) FROM runs",
    "arena_runs": "SELECT COUNT(*) FROM runs "
                  "WHERE schema LIKE 'repro-arena%'",
    "fault_runs": "SELECT COUNT(*) FROM runs "
                  "WHERE schema LIKE 'repro-faults%'",
    "bench_runs": "SELECT COUNT(*) FROM runs "
                  "WHERE schema LIKE 'repro-bench%'",
    "arena_cells": "SELECT COUNT(*) FROM arena_cells",
    "fault_cells": "SELECT COUNT(*) FROM fault_cells",
    "lbs_ranked": "SELECT COUNT(DISTINCT lb) FROM arena_ranking",
}


def separate_counts(conn, names) -> dict:
    return {name: conn.execute(SEPARATE_COUNTS[name]).fetchone()[0]
            for name in names}


class TestSetBasedQueries:
    @pytest.fixture()
    def mixed(self, tmp_path):
        """Two arena runs, one arena run with every cell incomplete,
        one arena run without rows at all, and runs of other kinds."""
        path = str(tmp_path / "mixed.sqlite")
        censored = make_arena_doc(lbs=("ecmp", "reps", "rps"))
        for cell in censored["cells"]:
            cell["completed"] = False
        with ResultsStore(path) as store:
            ingest_doc(store, make_arena_doc(), source="a1")
            ingest_doc(store, make_faults_doc(), source="f1")
            ingest_doc(store, censored, source="censored")
            ingest_doc(store, make_bench_doc(), source="b1")
            ingest_doc(store, make_arena_doc(), source="a2")
            store.insert_run("repro-arena-v1", "arena", source="bare")
            spec = JobSpec(kind="callable", seed=1, params={"t": "m:f"})
            store.put_job_result(spec, {"value": 1})
        with closing(connect_readonly(path)) as conn:
            yield conn

    @pytest.fixture()
    def empty(self, tmp_path):
        path = str(tmp_path / "empty.sqlite")
        ResultsStore(path).close()
        with closing(connect_readonly(path)) as conn:
            yield conn

    def test_arena_runs_equals_the_per_run_computation(self, mixed,
                                                       empty):
        rows = arena_runs(mixed)
        assert rows == arena_runs_per_run(mixed)
        assert [list(row) for row in rows] == \
            [list(row) for row in arena_runs_per_run(mixed)]  # key order
        assert [r["source"] for r in rows] == \
            ["a1", "censored", "a2", "bare"]
        censored, bare = rows[1], rows[3]
        assert censored["cells"] == 3 and censored["completed_cells"] == 0
        assert censored["completed_cells"] is not None
        assert censored["best_lb"] is not None
        assert (bare["cells"], bare["completed_cells"],
                bare["best_lb"], bare["best_slowdown"]) == (0, 0, None,
                                                            None)
        assert arena_runs(empty) == arena_runs_per_run(empty) == []

    def test_arena_runs_counts_cells_from_the_covering_index(
            self, mixed, tmp_path):
        """``arena_runs`` counts each run's cells from
        ``arena_cells_run_completed`` and never reads ``cell_json``.  A
        store from before that index (one only ever opened read-only)
        answers the same rows by its old plan, and its next writer
        builds the index."""
        def rows_and_plan(conn):
            statements = []
            conn.set_trace_callback(statements.append)
            try:
                rows = arena_runs(conn)
            finally:
                conn.set_trace_callback(None)
            (statement,) = statements
            return rows, [row[3] for row in conn.execute(
                "EXPLAIN QUERY PLAN " + statement)]

        rows, plan = rows_and_plan(mixed)
        assert ("SCAN arena_cells USING COVERING INDEX "
                "arena_cells_run_completed") in plan
        old = str(tmp_path / "old.sqlite")
        with closing(sqlite3.connect(old)) as copy:
            mixed.backup(copy)
            copy.execute("DROP INDEX arena_cells_run_completed")
            copy.commit()
        with closing(connect_readonly(old)) as conn:
            old_rows, old_plan = rows_and_plan(conn)
        assert old_rows == rows and old_rows[0]["cells"] == 2
        assert not any("arena_cells_run_completed" in step
                       for step in old_plan)
        ResultsStore(old).close()
        with closing(connect_readonly(old)) as conn:
            assert rows_and_plan(conn) == (rows, plan)

    def test_counts_equal_the_separate_counts(self, mixed, empty):
        for conn in (mixed, empty):
            counts = table_counts(conn)
            assert list(counts) == list(SEPARATE_COUNTS)[:-1]
            assert counts == separate_counts(conn, counts)
            totals = summary(conn)
            assert list(totals) == list(SEPARATE_COUNTS)
            assert totals == separate_counts(conn, totals)
        assert summary(mixed)["arena_runs"] == 4
        assert summary(mixed)["lbs_ranked"] == 3
        assert set(summary(empty).values()) == {0}

    def test_latest_run_id_per_document_family(self, mixed, empty):
        assert latest_run_id(mixed, "repro-arena") == 6
        assert latest_run_id(mixed, "repro-bench") == 4
        assert latest_run_id(empty, "repro-arena") is None
