"""The SQLite results store.

One file (``results.sqlite`` by convention) holds two kinds of state:

* **Job results** (``job_results``) — the raw payload of every completed
  :class:`repro.harness.jobs.JobSpec`, keyed by spec-hash.  This table
  *is* the run cache: the store's primary key and the runner's cache key
  are the same string, so :class:`repro.harness.jobs.JobRunner` can
  satisfy a job from here without executing anything.  Payloads are
  stored as the same canonical JSON that travels the runner's other
  paths (pipe, checkpoint), so a cache hit reconstructs a byte-identical
  result.
* **Ingested runs** (``runs`` + per-schema detail tables) — whole result
  documents (arena rankings, fault campaigns, bench history) decomposed
  into queryable rows for the dashboard, with enough fidelity that
  :func:`repro.results.ingest.emit_arena_doc` can re-emit the original
  document byte-for-byte.

Concurrency model: a single writer (the runner / the ingest CLI) on one
connection in WAL mode, any number of readers on their own read-only
connections (:func:`connect_readonly`) — which is how the dashboard
serves concurrent traffic: it keeps the connections it opens and lends
one to each render (:class:`repro.results.server.Dashboard`).  Two
writers on one file (two ``run_arena(cache=...)`` parents) take turns:
each commit waits out the other's lock, and two handles opening a new
file at once retry its switch to WAL (:meth:`ResultsStore._enable_wal`).

Durability: the writer runs ``synchronous=NORMAL`` under WAL.  A commit
is appended to the WAL without an fsync of its own; the file is synced
at checkpoints.  The database cannot be corrupted by a crash, and every
commit survives the death of the process (SIGKILL included) because the
WAL write has reached the operating system.  Only a power cut or kernel
crash can lose the newest commits — for the run cache that is a job
executed again, for an ingest a document to ingest again.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Optional, Sequence

from repro.harness.jobs import canonical_json
from repro.results.query import table_counts

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS job_results (
    spec_hash   TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    label       TEXT NOT NULL DEFAULT '',
    params_json TEXT NOT NULL,
    result_json TEXT NOT NULL,
    created_s   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS job_results_kind ON job_results(kind);

CREATE TABLE IF NOT EXISTS runs (
    run_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    schema     TEXT NOT NULL,
    name       TEXT NOT NULL,
    source     TEXT NOT NULL DEFAULT '-',
    ingested_s REAL NOT NULL,
    meta_json  TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS runs_schema ON runs(schema);

CREATE TABLE IF NOT EXISTS arena_cells (
    run_id        INTEGER NOT NULL REFERENCES runs(run_id),
    cell_order    INTEGER NOT NULL,
    spec_hash     TEXT NOT NULL,
    lb            TEXT NOT NULL,
    transport     TEXT NOT NULL,
    cc            TEXT NOT NULL,
    workload      TEXT NOT NULL,
    topology      TEXT NOT NULL,
    seed          INTEGER NOT NULL,
    completed     INTEGER NOT NULL,
    mean_slowdown REAL NOT NULL,
    goodput_gbps  REAL NOT NULL,
    reorder_rate  REAL NOT NULL,
    nack_validity REAL NOT NULL,
    tail_ns       INTEGER NOT NULL,
    cell_json     TEXT NOT NULL,
    PRIMARY KEY (run_id, cell_order)
);
CREATE INDEX IF NOT EXISTS arena_cells_hash ON arena_cells(spec_hash);

CREATE TABLE IF NOT EXISTS arena_ranking (
    run_id             INTEGER NOT NULL REFERENCES runs(run_id),
    rank               INTEGER NOT NULL,
    lb                 TEXT NOT NULL,
    transport          TEXT NOT NULL,
    mean_slowdown      REAL NOT NULL,
    mean_goodput_gbps  REAL NOT NULL,
    mean_reorder_rate  REAL NOT NULL,
    mean_nack_validity REAL NOT NULL,
    row_json           TEXT NOT NULL,
    PRIMARY KEY (run_id, rank)
);

CREATE TABLE IF NOT EXISTS fault_cells (
    run_id       INTEGER NOT NULL REFERENCES runs(run_id),
    cell_order   INTEGER NOT NULL,
    scenario     TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    completed    INTEGER NOT NULL,
    tail_stretch REAL,
    dip_frac     REAL,
    recovery_ns  INTEGER,
    unexplained  INTEGER NOT NULL,
    cell_json    TEXT NOT NULL,
    PRIMARY KEY (run_id, cell_order)
);
CREATE INDEX IF NOT EXISTS fault_cells_scenario ON fault_cells(scenario);

CREATE TABLE IF NOT EXISTS bench_scenarios (
    run_id         INTEGER NOT NULL REFERENCES runs(run_id),
    scenario       TEXT NOT NULL,
    engine         TEXT NOT NULL,
    events         INTEGER NOT NULL,
    wall_s         REAL NOT NULL,
    events_per_sec INTEGER NOT NULL,
    PRIMARY KEY (run_id, scenario, engine)
);
"""


def connect_readonly(path: str) -> sqlite3.Connection:
    """A read-only connection — what every dashboard render borrows.

    ``mode=ro`` makes accidental writes an sqlite error rather than a
    lock fight with the single writer.  The connection may be used from
    any thread, one at a time: the dashboard hands it from one handler
    thread to the next.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"results store not found: {path}")
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                           check_same_thread=False)
    conn.row_factory = sqlite3.Row
    return conn


class ResultsStore:
    """Single-writer handle on a results database (creates the schema)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.conn = sqlite3.connect(self.path)
        self.conn.row_factory = sqlite3.Row
        # WAL lets dashboard readers proceed while a sweep is writing;
        # NORMAL syncs at checkpoints, not per commit (module docstring).
        self._enable_wal()
        self.conn.execute("PRAGMA synchronous=NORMAL")
        self.conn.executescript(_SCHEMA)
        version = self.conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            self.conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        elif version != SCHEMA_VERSION:
            self.conn.close()
            raise RuntimeError(
                f"{self.path}: store schema v{version}, this build "
                f"expects v{SCHEMA_VERSION}")
        self.conn.commit()

    def _enable_wal(self) -> None:
        """Switch the file to WAL (a no-op once it is).

        Two handles opening a new file at once both hold a shared lock
        and both ask for the exclusive one; sqlite breaks that deadlock
        by failing one of them at once, without waiting out the busy
        timeout, so the loser retries for as long as that timeout (5 s,
        ``sqlite3.connect``'s default).
        """
        deadline = time.monotonic() + 5.0
        while True:
            try:
                self.conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if ("locked" not in str(exc)
                        or time.monotonic() > deadline):
                    raise
                time.sleep(0.01)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- run cache (job results) ---------------------------------------
    def get_job_result(self, spec_hash: str) -> Optional[dict]:
        """The cached payload for a spec-hash, or ``None`` on a miss.

        The payload went through canonical JSON on the way in, so what
        comes back is structurally identical to a fresh
        ``execute_spec`` payload — the property the byte-identical
        warm-run guarantee rests on.
        """
        row = self.conn.execute(
            "SELECT result_json FROM job_results WHERE spec_hash=?",
            (spec_hash,)).fetchone()
        return None if row is None else json.loads(row["result_json"])

    def put_job_result(self, spec, result: dict) -> None:
        """Insert/refresh one completed job (spec is a ``JobSpec``)."""
        self.conn.execute(
            "INSERT OR REPLACE INTO job_results "
            "(spec_hash, kind, seed, label, params_json, result_json, "
            " created_s) VALUES (?,?,?,?,?,?,?)",
            (spec.spec_hash, spec.kind, spec.seed, spec.label,
             canonical_json(spec.params), canonical_json(result), time.time()))
        self.conn.commit()

    # -- ingested runs -------------------------------------------------
    # Neither insert helper commits: a document is one transaction,
    # opened and closed by ``repro.results.ingest.ingest_doc``.
    def insert_run(self, schema: str, name: str, *, source: str = "-",
                   meta: Optional[dict] = None) -> int:
        cur = self.conn.execute(
            "INSERT INTO runs (schema, name, source, ingested_s, "
            "meta_json) VALUES (?,?,?,?,?)",
            (schema, name, source, time.time(),
             json.dumps(meta or {})))
        return cur.lastrowid

    def run_row(self, run_id: int) -> Optional[sqlite3.Row]:
        return self.conn.execute(
            "SELECT * FROM runs WHERE run_id=?", (run_id,)).fetchone()

    def insert_rows(self, table: str, rows: Sequence[tuple]) -> None:
        """Bulk-insert full-width rows into a detail table (the row
        shapes live with each document family in ``ingest``)."""
        if rows:
            marks = ",".join("?" * len(rows[0]))
            self.conn.executemany(
                f"INSERT INTO {table} VALUES ({marks})", rows)

    # -- summary -------------------------------------------------------
    def counts(self) -> dict:
        """Row counts per surface — the dashboard's headline tiles."""
        return {"path": self.path, **table_counts(self.conn)}
