"""Document ingesters: versioned result docs -> queryable rows.

Three document families are understood, auto-detected by their schema
marker:

* ``repro-arena-v1``  — ``repro arena --out`` (PR 9),
* ``repro-faults-v1`` — ``repro faults run --out``,
* bench history       — a ``schema_version`` int plus ``scenarios``,
  normalised to the ``repro-bench-v<N>`` schema string in the store.
  Nothing in the repo writes one any more; the family stays because
  existing stores hold nightly history and the performance ledger's
  ``dashboard_serve`` workload ingests synthetic ones to time ``/bench``.

Ingest is **validating** (a malformed document raises
:class:`IngestError` and no row lands) and **lossless** for the
versioned documents: per-cell/per-rank rows keep the original JSON
fragment with its key order, and the document-level remainder lands in
``runs.meta_json``, so :func:`emit_arena_doc` / :func:`emit_faults_doc`
rebuild the exact bytes that came in — the round-trip property pinned
by ``tests/results/test_store.py``.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Callable, NamedTuple, Optional

from repro.harness.jobs import resolve_target
from repro.harness.report import field_problems
from repro.results import query
from repro.results.store import ResultsStore


class IngestError(ValueError):
    """A document failed validation or was not a known schema."""


# ----------------------------------------------------------------------
# Arena
# ----------------------------------------------------------------------
def _ingest_arena(store: ResultsStore, doc: dict, source: str) -> dict:
    run_id = store.insert_run(doc["schema"], "arena", source=source,
                              meta={"axes": doc["axes"]})
    store.insert_rows("arena_cells", [
        (run_id, i, c["spec_hash"], c["lb"], c["transport"], c["cc"],
         c["workload"], c["topology"], c["seed"], int(bool(c["completed"])),
         c["mean_slowdown"], c["goodput_gbps"], c["reorder_rate"],
         c["nack_validity"], c["tail_ns"], json.dumps(c))
        for i, c in enumerate(doc["cells"])])
    store.insert_rows("arena_ranking", [
        (run_id, r["rank"], r["lb"], r["transport"], r["mean_slowdown"],
         r["mean_goodput_gbps"], r["mean_reorder_rate"],
         r["mean_nack_validity"], json.dumps(r))
        for r in doc["ranking"]])
    return {"run_id": run_id, "kind": "arena",
            "cells": len(doc["cells"]),
            "ranking_rows": len(doc["ranking"])}


def _emit_arena(store: ResultsStore, run) -> dict:
    # Key order mirrors build_arena_doc, so a plain json.dumps of this
    # dict is byte-identical to dumping the original.
    return {"schema": run["schema"],
            "axes": json.loads(run["meta_json"])["axes"],
            "cells": query.arena_cells(store.conn, run["run_id"]),
            "ranking": query.arena_ranking(store.conn, run["run_id"])}


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
def _ingest_faults(store: ResultsStore, doc: dict, source: str) -> dict:
    meta = {k: doc[k] for k in ("scenario", "duration_us", "seeds",
                                "failures", "validation_problems",
                                "aggregate")
            if k in doc}
    run_id = store.insert_run(doc["schema"], doc["scenario"],
                              source=source, meta=meta)
    store.insert_rows("fault_cells", [
        (run_id, i, c["scenario"], c["seed"], int(bool(c["completed"])),
         c.get("tail_stretch"), c["goodput"].get("dip_frac"),
         c["goodput"].get("recovery_ns"),
         c["nacks"].get("unexplained", 0), json.dumps(c))
        for i, c in enumerate(doc["cells"])])
    return {"run_id": run_id, "kind": "faults",
            "cells": len(doc["cells"])}


def _emit_faults(store: ResultsStore, run) -> dict:
    from repro.faults.campaign import build_faults_doc
    cells = [json.loads(row["cell_json"]) for row in store.conn.execute(
        "SELECT cell_json FROM fault_cells WHERE run_id=? "
        "ORDER BY cell_order", (run["run_id"],))]
    doc = build_faults_doc({**json.loads(run["meta_json"]), "cells": cells})
    doc["schema"] = run["schema"]
    return doc


# ----------------------------------------------------------------------
# Bench
# ----------------------------------------------------------------------
def _validate_bench(doc: dict) -> list[str]:
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return ["bench doc has no scenarios"]
    required = ("events", "wall_s", "events_per_sec")
    problems = [problem for name, res in scenarios.items()
                for problem in field_problems(
                    res, required, label=f"bench scenario {name!r}")]
    for key in ("heap_baseline", "tracing"):
        if doc.get(key):
            problems += field_problems(doc[key], required + ("scenario",),
                                       label=key)
    return problems


def _ingest_bench(store: ResultsStore, doc: dict, source: str) -> dict:
    # Everything except the bulky per-scenario rows rides meta_json, so
    # the dashboard can surface the tracing overhead and run metadata.
    meta = {k: v for k, v in doc.items() if k != "scenarios"}
    run_id = store.insert_run(_schema_of(doc), "bench", source=source,
                              meta=meta)
    # One row per scenario, plus the traced run and — in documents older
    # than schema v4 — the heap-engine baseline.
    rows = [(name, res.get("engine", "calendar"), res)
            for name, res in doc["scenarios"].items()]
    rows += [(doc[key]["scenario"], engine, doc[key])
             for key, engine in (("heap_baseline", "heap"),
                                 ("tracing", "traced")) if doc.get(key)]
    store.insert_rows("bench_scenarios", [
        (run_id, scenario, engine, res["events"], res["wall_s"],
         res["events_per_sec"]) for scenario, engine, res in rows])
    return {"run_id": run_id, "kind": "bench",
            "scenarios": len(doc["scenarios"])}


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------
class DocFamily(NamedTuple):
    """One document family: how its documents are recognised (the prefix
    of ``runs.schema``), checked, stored and rebuilt.  A new family adds
    one row here (plus its detail table in the store)."""

    kind: str
    prefix: str
    #: ``"module:qualname"`` of ``doc -> problems`` (structural ones only:
    #: an incomplete cell is data), resolved when a document arrives so
    #: the store never imports a family it is not asked about.
    validate: str
    ingest: Callable[[ResultsStore, dict, str], dict]
    #: ``None``: the family is stored for charts, not re-emitted.
    emit: Optional[Callable[[ResultsStore, object], dict]]


FAMILIES = (
    DocFamily("arena", "repro-arena-",
              "repro.harness.arena:structural_problems",
              _ingest_arena, _emit_arena),
    DocFamily("faults", "repro-faults-",
              "repro.faults.campaign:validate_faults_doc",
              _ingest_faults, _emit_faults),
    DocFamily("bench", "repro-bench-",
              "repro.results.ingest:_validate_bench", _ingest_bench, None),
)


def _family_of(schema: object) -> Optional[DocFamily]:
    if isinstance(schema, str):
        for family in FAMILIES:
            if schema.startswith(family.prefix):
                return family
    return None


def _schema_of(doc: dict) -> object:
    """The ``runs.schema`` string of a document.  Bench history carries
    an integer ``schema_version`` instead of a marker; it is normalised
    to ``repro-bench-v<N>``."""
    if isinstance(doc.get("schema_version"), int) and "scenarios" in doc:
        return f"repro-bench-v{doc['schema_version']}"
    return doc.get("schema")


def _family_of_doc(doc: dict) -> DocFamily:
    if not isinstance(doc, dict):
        raise IngestError("document is not a JSON object")
    family = _family_of(_schema_of(doc))
    if family is None:
        raise IngestError(
            f"unrecognised document (schema={doc.get('schema')!r}); "
            "expected a repro-arena-v1 / repro-faults-v1 doc or a bench "
            "history document (schema_version + scenarios)")
    return family


def detect_doc_kind(doc: dict) -> str:
    """``"arena"`` | ``"faults"`` | ``"bench"``, or raise."""
    return _family_of_doc(doc).kind


def ingest_doc(store: ResultsStore, doc: dict, *,
               source: str = "-") -> dict:
    """Validate + ingest one document; returns an ingest receipt.

    One transaction per document: a value that passes the structural
    validator but not sqlite (a dict where a number belongs, a null in
    a NOT NULL column) raises :class:`IngestError` and leaves no row
    behind, in any table.
    """
    family = _family_of_doc(doc)
    problems = resolve_target(family.validate)(doc)
    if problems:
        raise IngestError(f"invalid {family.kind} doc: {problems[:3]}")
    try:
        with store.conn:
            return family.ingest(store, doc, source)
    except sqlite3.Error as exc:
        raise IngestError(f"invalid {family.kind} doc: {exc}") from exc


def ingest_file(store: ResultsStore, path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}: not valid JSON ({exc})") from None
    return ingest_doc(store, doc, source=str(path))


def emit_doc(store: ResultsStore, run_id: int, kind: str = "") -> dict:
    """Rebuild the exact document an ingested run came from.

    ``kind`` insists on one family; raises :class:`IngestError` when the
    run is missing, of another family, or of a family that does not
    re-emit (bench).
    """
    run = store.run_row(run_id)
    family = _family_of(run["schema"]) if run is not None else None
    if family is None or family.emit is None \
            or (kind and family.kind != kind):
        raise IngestError(f"run {run_id} is not an ingested "
                          f"{kind or 're-emittable'} run")
    return family.emit(store, run)


def emit_arena_doc(store: ResultsStore, run_id: int) -> dict:
    """Rebuild the exact ``repro-arena-v1`` document from stored rows."""
    return emit_doc(store, run_id, "arena")


def emit_faults_doc(store: ResultsStore, run_id: int) -> dict:
    """Rebuild the exact ``repro-faults-v1`` document from stored rows."""
    return emit_doc(store, run_id, "faults")
