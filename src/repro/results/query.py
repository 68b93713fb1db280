"""Read-side queries for the dashboard and the ``repro results`` CLI.

Every function takes a plain sqlite connection (writer or read-only) so
the dashboard's kept read-only connections and the CLI's writer handle
share one query surface.  Rows come back as JSON-ready dicts — the
``/api/*`` endpoints serve them verbatim.

A page costs a fixed number of statements, whatever the store holds, and
every cursor is consumed or closed before a function returns: the
dashboard keeps its connections, and an unfinished statement would pin
an old WAL snapshot and block the writer's checkpoint.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Optional


def _first(conn: sqlite3.Connection, sql: str,
           args: tuple = ()) -> Optional[sqlite3.Row]:
    """First row of a statement, with its cursor closed."""
    cursor = conn.execute(sql, args)
    try:
        return cursor.fetchone()
    finally:
        cursor.close()


_COUNTS = {
    "job_results": "COUNT(*) FROM job_results",
    "runs": "COUNT(*) FROM runs",
    "arena_runs": "COUNT(*) FROM runs WHERE schema LIKE 'repro-arena%'",
    "fault_runs": "COUNT(*) FROM runs WHERE schema LIKE 'repro-faults%'",
    "bench_runs": "COUNT(*) FROM runs WHERE schema LIKE 'repro-bench%'",
    "arena_cells": "COUNT(*) FROM arena_cells",
    "fault_cells": "COUNT(*) FROM fault_cells",
}
_SUMMARY = {**_COUNTS,
            "lbs_ranked": "COUNT(DISTINCT lb) FROM arena_ranking"}


def _scalars(conn: sqlite3.Connection, selects: dict[str, str]) -> dict:
    """``{name: value}`` of single-value selects, in one statement."""
    row = _first(conn, "SELECT " + ", ".join(
        f"(SELECT {select})" for select in selects.values()))
    return dict(zip(selects, row))


def table_counts(conn: sqlite3.Connection) -> dict:
    """Row counts per surface (``ResultsStore.counts`` adds the path)."""
    return _scalars(conn, _COUNTS)


def summary(conn: sqlite3.Connection) -> dict:
    return _scalars(conn, _SUMMARY)


def list_runs(conn: sqlite3.Connection,
              schema_prefix: Optional[str] = None) -> list[dict]:
    sql = ("SELECT run_id, schema, name, source, ingested_s "
           "FROM runs")
    args: tuple = ()
    if schema_prefix:
        sql += " WHERE schema LIKE ?"
        args = (schema_prefix + "%",)
    sql += " ORDER BY run_id"
    return [dict(r) for r in conn.execute(sql, args)]


def _run_ids(conn: sqlite3.Connection, schema_prefix: str) -> list[int]:
    return [row[0] for row in conn.execute(
        "SELECT run_id FROM runs WHERE schema LIKE ? ORDER BY run_id",
        (schema_prefix + "%",))]


def latest_run_id(conn: sqlite3.Connection,
                  schema_prefix: str) -> Optional[int]:
    """The newest ingested run of one document family, if any."""
    return _first(conn, "SELECT MAX(run_id) FROM runs WHERE schema LIKE ?",
                  (schema_prefix + "%",))[0]


# ----------------------------------------------------------------------
# Arena
# ----------------------------------------------------------------------
def arena_runs(conn: sqlite3.Connection) -> list[dict]:
    """Arena run listing with per-run headline (the rank-1 pair)."""
    return [dict(row) for row in conn.execute(
        "SELECT r.run_id, r.schema, r.name, r.source, r.ingested_s, "
        "COALESCE(c.cells, 0) AS cells, "
        "COALESCE(c.completed_cells, 0) AS completed_cells, "
        "k.lb AS best_lb, k.transport AS best_transport, "
        "k.mean_slowdown AS best_slowdown "
        "FROM runs r "
        "LEFT JOIN (SELECT run_id, COUNT(*) AS cells, "
        "           SUM(completed) AS completed_cells "
        "           FROM arena_cells GROUP BY run_id) c "
        "ON c.run_id=r.run_id "
        "LEFT JOIN arena_ranking k ON k.run_id=r.run_id AND k.rank=1 "
        "WHERE r.schema LIKE 'repro-arena%' ORDER BY r.run_id")]


def arena_ranking(conn: sqlite3.Connection, run_id: int) -> list[dict]:
    return [json.loads(r["row_json"]) for r in conn.execute(
        "SELECT row_json FROM arena_ranking WHERE run_id=? "
        "ORDER BY rank", (run_id,))]


def arena_cells(conn: sqlite3.Connection, run_id: int) -> list[dict]:
    return [json.loads(r["cell_json"]) for r in conn.execute(
        "SELECT cell_json FROM arena_cells WHERE run_id=? "
        "ORDER BY cell_order", (run_id,))]


def arena_run_json(conn: sqlite3.Connection, run_id: int) -> Optional[str]:
    """``{"run_id", "cells", "ranking"}`` of one run as JSON text, or
    ``None`` for an unknown run — the ``/api/arena/<id>`` body.

    The stored ``cell_json`` / ``row_json`` fragments are joined as
    they are, never parsed: the text loads to the same value as
    :func:`arena_cells` and :func:`arena_ranking` return.
    """
    cells = [row[0] for row in conn.execute(
        "SELECT cell_json FROM arena_cells WHERE run_id=? "
        "ORDER BY cell_order", (run_id,))]
    if not cells:
        return None
    ranking = [row[0] for row in conn.execute(
        "SELECT row_json FROM arena_ranking WHERE run_id=? "
        "ORDER BY rank", (run_id,))]
    return ('{"run_id": %d, "cells": [%s], "ranking": [%s]}'
            % (run_id, ", ".join(cells), ", ".join(ranking)))


def arena_cell_rows(conn: sqlite3.Connection, run_id: int) -> list:
    """What ``/arena/<id>`` shows of each cell, in cell order, read from
    the columns ingest filled beside ``cell_json``: ``(spec_hash, lb,
    transport, cc, workload, topology, seed, completed, mean_slowdown,
    goodput_gbps, nack_validity)``."""
    return conn.execute(
        "SELECT spec_hash, lb, transport, cc, workload, topology, seed, "
        "completed, mean_slowdown, goodput_gbps, nack_validity "
        "FROM arena_cells WHERE run_id=? ORDER BY cell_order",
        (run_id,)).fetchall()


def ranking_over_time(conn: sqlite3.Connection) -> dict:
    """Rank and slowdown trajectories per (lb, transport) pair.

    Returns ``{"run_ids": [...], "series": [{"lb", "transport",
    "ranks": [...], "slowdowns": [...]}, ...]}`` with one entry per run
    (``None`` where the pair is absent from a run), series ordered by
    their rank in the most recent run — the dashboard's headline chart.
    """
    run_ids = _run_ids(conn, "repro-arena")
    column = {run_id: i for i, run_id in enumerate(run_ids)}
    by_pair: dict[tuple, tuple[list, list]] = {}
    for run_id, rank, lb, transport, slowdown in conn.execute(
            "SELECT run_id, rank, lb, transport, mean_slowdown "
            "FROM arena_ranking ORDER BY run_id, rank"):
        lists = by_pair.get((lb, transport))
        if lists is None:
            lists = by_pair[lb, transport] = ([None] * len(run_ids),
                                              [None] * len(run_ids))
        i = column[run_id]
        lists[0][i] = rank
        lists[1][i] = slowdown
    series = [{"lb": lb, "transport": transport, "latest_rank": ranks[-1],
               "ranks": ranks, "slowdowns": slowdowns}
              for (lb, transport), (ranks, slowdowns) in by_pair.items()]
    series.sort(key=lambda s: (s["latest_rank"] is None,
                               s["latest_rank"] or 0,
                               s["lb"], s["transport"]))
    return {"run_ids": run_ids, "series": series}


def cell_detail(conn: sqlite3.Connection, run_id: int,
                spec_hash: str) -> Optional[dict]:
    row = _first(conn, "SELECT cell_json FROM arena_cells WHERE run_id=? "
                 "AND spec_hash=?", (run_id, spec_hash))
    if row is None:
        return None
    cell = json.loads(row["cell_json"])
    # The same spec-hash across other ingested runs: the cell's own
    # history line (seed and grid unchanged -> directly comparable).
    history = [
        {"run_id": r["run_id"], "mean_slowdown": r["mean_slowdown"],
         "goodput_gbps": r["goodput_gbps"],
         "nack_validity": r["nack_validity"]}
        for r in conn.execute(
            "SELECT run_id, mean_slowdown, goodput_gbps, nack_validity "
            "FROM arena_cells WHERE spec_hash=? ORDER BY run_id",
            (spec_hash,))]
    job = _first(conn, "SELECT kind, seed, label, params_json "
                 "FROM job_results WHERE spec_hash=?", (spec_hash,))
    return {"run_id": run_id, "cell": cell, "history": history,
            "job": (dict(kind=job["kind"], seed=job["seed"],
                         label=job["label"],
                         params=json.loads(job["params_json"]))
                    if job else None)}


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------
def fault_panels(conn: sqlite3.Connection) -> list[dict]:
    """Per-scenario recovery/dip panels across every ingested run."""
    panels: dict[str, dict] = {}
    for row in conn.execute(
            "SELECT f.run_id, f.scenario, f.seed, f.completed, "
            "f.tail_stretch, f.dip_frac, f.recovery_ns, f.unexplained "
            "FROM fault_cells f ORDER BY f.run_id, f.cell_order"):
        panel = panels.setdefault(row["scenario"], {
            "scenario": row["scenario"], "cells": []})
        panel["cells"].append({
            "run_id": row["run_id"], "seed": row["seed"],
            "completed": bool(row["completed"]),
            "tail_stretch": row["tail_stretch"],
            "dip_frac": row["dip_frac"],
            "recovery_ns": row["recovery_ns"],
            "unexplained": row["unexplained"]})
    for panel in panels.values():
        cells = panel["cells"]
        recoveries = [c["recovery_ns"] for c in cells
                      if c["recovery_ns"] is not None]
        dips = [c["dip_frac"] for c in cells
                if c["dip_frac"] is not None]
        panel["aggregate"] = {
            "cells": len(cells),
            "completed": sum(1 for c in cells if c["completed"]),
            "unexplained_nacks": sum(c["unexplained"] for c in cells),
            "mean_recovery_ns": (round(sum(recoveries) / len(recoveries))
                                 if recoveries else None),
            "worst_dip_frac": max(dips) if dips else None,
        }
    return sorted(panels.values(), key=lambda p: p["scenario"])


# ----------------------------------------------------------------------
# Bench
# ----------------------------------------------------------------------
def bench_series(conn: sqlite3.Connection) -> dict:
    """events/sec trend per (scenario, engine) plus per-run meta.

    Behind ``/bench`` and ``/api/bench``: kept for the bench history
    existing stores hold and for the ledger's ``dashboard_serve``."""
    runs = conn.execute(
        "SELECT run_id, meta_json, source FROM runs "
        "WHERE schema LIKE 'repro-bench%' ORDER BY run_id").fetchall()
    run_ids = [run["run_id"] for run in runs]
    series: dict[tuple, dict] = {}
    for row in conn.execute(
            "SELECT run_id, scenario, engine, events_per_sec "
            "FROM bench_scenarios ORDER BY run_id"):
        key = (row["scenario"], row["engine"])
        entry = series.setdefault(key, {
            "scenario": row["scenario"], "engine": row["engine"],
            "points": {}})
        entry["points"][row["run_id"]] = row["events_per_sec"]
    meta = []
    for run in runs:
        doc = json.loads(run["meta_json"])
        meta.append({
            "run_id": run["run_id"], "source": run["source"],
            "quick": doc.get("quick"),
            "python": doc.get("python"),
            "speedup_vs_heap": doc.get("speedup_vs_heap"),
            "tracing_overhead": doc.get("tracing", {})
            .get("overhead_ratio"),
        })
    out = []
    for entry in sorted(series.values(),
                        key=lambda e: (e["scenario"], e["engine"])):
        out.append({
            "scenario": entry["scenario"], "engine": entry["engine"],
            "events_per_sec": [entry["points"].get(r)
                               for r in run_ids]})
    return {"run_ids": run_ids, "series": out, "runs": meta}
