"""Read-side queries for the dashboard and the ``repro results`` CLI.

Every function takes a plain sqlite connection (writer or read-only) so
the dashboard's per-thread read-only connections and the CLI's writer
handle share one query surface.  Rows come back as JSON-ready dicts —
the ``/api/*`` endpoints serve them verbatim.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Optional


_COUNTS = {
    "job_results": "job_results",
    "runs": "runs",
    "arena_runs": "runs WHERE schema LIKE 'repro-arena%'",
    "fault_runs": "runs WHERE schema LIKE 'repro-faults%'",
    "bench_runs": "runs WHERE schema LIKE 'repro-bench%'",
    "arena_cells": "arena_cells",
    "fault_cells": "fault_cells",
}


def table_counts(conn: sqlite3.Connection) -> dict:
    """Row counts per surface (``ResultsStore.counts`` adds the path)."""
    return {name: conn.execute(f"SELECT COUNT(*) FROM {source}")
            .fetchone()[0] for name, source in _COUNTS.items()}


def summary(conn: sqlite3.Connection) -> dict:
    return {**table_counts(conn),
            "lbs_ranked": conn.execute(
                "SELECT COUNT(DISTINCT lb) FROM arena_ranking")
            .fetchone()[0]}


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


# ----------------------------------------------------------------------
# Arena
# ----------------------------------------------------------------------
def arena_runs(conn: sqlite3.Connection) -> list[dict]:
    """Arena run listing with per-run headline (the rank-1 pair)."""
    rows = []
    for run in list_runs(conn, "repro-arena"):
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


def arena_ranking(conn: sqlite3.Connection, run_id: int) -> list[dict]:
    return [json.loads(r["row_json"]) for r in conn.execute(
        "SELECT row_json FROM arena_ranking WHERE run_id=? "
        "ORDER BY rank", (run_id,))]


def arena_cells(conn: sqlite3.Connection, run_id: int) -> list[dict]:
    return [json.loads(r["cell_json"]) for r in conn.execute(
        "SELECT cell_json FROM arena_cells WHERE run_id=? "
        "ORDER BY cell_order", (run_id,))]


def ranking_over_time(conn: sqlite3.Connection) -> dict:
    """Rank and slowdown trajectories per (lb, transport) pair.

    Returns ``{"run_ids": [...], "series": [{"lb", "transport",
    "ranks": [...], "slowdowns": [...]}, ...]}`` with one entry per run
    (``None`` where the pair is absent from a run), series ordered by
    their rank in the most recent run — the dashboard's headline chart.
    """
    run_ids = _run_ids(conn, "repro-arena")
    by_pair: dict[tuple, dict] = {}
    for row in conn.execute(
            "SELECT run_id, rank, lb, transport, mean_slowdown "
            "FROM arena_ranking ORDER BY run_id, rank"):
        pair = (row["lb"], row["transport"])
        entry = by_pair.setdefault(pair, {
            "lb": row["lb"], "transport": row["transport"],
            "ranks": {}, "slowdowns": {}})
        entry["ranks"][row["run_id"]] = row["rank"]
        entry["slowdowns"][row["run_id"]] = row["mean_slowdown"]
    series = []
    last = run_ids[-1] if run_ids else None
    for entry in by_pair.values():
        series.append({
            "lb": entry["lb"], "transport": entry["transport"],
            "latest_rank": entry["ranks"].get(last),
            "ranks": [entry["ranks"].get(r) for r in run_ids],
            "slowdowns": [entry["slowdowns"].get(r) for r in run_ids]})
    series.sort(key=lambda s: (s["latest_rank"] is None,
                               s["latest_rank"] or 0,
                               s["lb"], s["transport"]))
    return {"run_ids": run_ids, "series": series}


def cell_detail(conn: sqlite3.Connection, run_id: int,
                spec_hash: str) -> Optional[dict]:
    row = conn.execute(
        "SELECT cell_json FROM arena_cells WHERE run_id=? AND "
        "spec_hash=?", (run_id, spec_hash)).fetchone()
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
    job = conn.execute(
        "SELECT kind, seed, label, params_json FROM job_results "
        "WHERE spec_hash=?", (spec_hash,)).fetchone()
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
    """events/sec trend per (scenario, engine) plus per-run meta."""
    run_ids = _run_ids(conn, "repro-bench")
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
    for run_id in run_ids:
        run = conn.execute("SELECT meta_json, source FROM runs WHERE "
                           "run_id=?", (run_id,)).fetchone()
        doc = json.loads(run["meta_json"])
        meta.append({
            "run_id": run_id, "source": run["source"],
            "quick": doc.get("quick"),
            "python": doc.get("python"),
            "speedup_vs_heap": doc.get("speedup_vs_heap"),
            "tracing_overhead": doc.get("tracing", {})
            .get("overhead_ratio"),
            "cost_model_costs": doc.get("cost_model", {})
            .get("costs_ns"),
        })
    out = []
    for entry in sorted(series.values(),
                        key=lambda e: (e["scenario"], e["engine"])):
        out.append({
            "scenario": entry["scenario"], "engine": entry["engine"],
            "events_per_sec": [entry["points"].get(r)
                               for r in run_ids]})
    return {"run_ids": run_ids, "series": out, "runs": meta}
