"""Results service: spec-hash results store, run cache, dashboard.

ROADMAP item 5 ("serve results to many users"): every prior PR emits
spec-hashed documents — ``repro arena --out`` (``repro-arena-v1``),
``repro faults run --out`` (``repro-faults-v1``), and bench history
documents from earlier nightly runs — and this package turns them into one
browsable, cacheable system of record:

* :mod:`repro.results.store` — the SQLite store.  Its primary key is the
  :class:`repro.harness.jobs.JobSpec` spec-hash, which is *also* the job
  runner's cache key, so the store doubles as a read-through run cache:
  re-running a sweep with unchanged specs executes zero jobs.
* :mod:`repro.results.ingest` — document ingesters (arena, faults,
  bench) plus lossless re-emitters used by the round-trip tests.
* :mod:`repro.results.query` — read-side queries the dashboard renders:
  rankings over time, fault-recovery panels, bench trend lines.
* :mod:`repro.results.server` — ``repro serve``: a zero-dependency
  stdlib HTTP dashboard with per-thread read-only connections.

Everything here is stdlib-only (``sqlite3``, ``http.server``); the rest
of the simulator never imports this package except lazily.
"""

from repro.results.ingest import (IngestError, detect_doc_kind,
                                  emit_arena_doc, emit_doc,
                                  emit_faults_doc, ingest_doc, ingest_file)
from repro.results.store import ResultsStore, connect_readonly

__all__ = [
    "ResultsStore", "connect_readonly",
    "IngestError", "detect_doc_kind", "ingest_doc", "ingest_file",
    "emit_doc", "emit_arena_doc", "emit_faults_doc",
]
