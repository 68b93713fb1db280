"""Deterministic, crash-resilient job runner for experiment sweeps.

The Fig. 5 sweep and the multi-seed replications are embarrassingly
parallel — every (condition, scheme, seed) cell is an independent
simulation — yet the seed harness ran them serially in one process.
This module turns each cell into a self-describing :class:`JobSpec` and
executes job lists on a bounded pool of **per-job subprocesses**, giving

* **parallelism** — up to ``workers`` jobs in flight at once;
* **isolation** — a crashing or leaking job takes down its own
  subprocess, never the sweep;
* **timeouts** — a wedged job is killed after ``timeout_s`` wall seconds;
* **bounded retry with backoff** — worker crashes and timeouts are
  retried up to ``retries`` times with exponential backoff (a job that
  raises an ordinary exception is *not* retried: it is deterministic and
  would fail again);
* **checkpoint/resume** — completed results stream to an append-only
  JSONL file keyed by spec-hash, so an interrupted sweep resumes where
  it left off instead of recomputing;
* **reclamation** — an in-process job's garbage, its finished fabric
  above all, is freed as the job ends (``JobRunner._run_inproc``).

Determinism contract
--------------------
A job is identified by its **spec-hash**: the SHA-256 of the canonical
JSON encoding of ``(kind, seed, params)``.  Results travel as
JSON-normalised payloads on every path (in-process, subprocess pipe,
checkpoint resume), and callers aggregate by iterating *specs* in their
own deterministic order rather than completion order — so a parallel run
is bitwise-identical to a serial one, proven by the golden test in
``tests/harness/test_jobs.py``.

Job kinds
---------
:data:`JOB_KINDS` maps each kind to the ``"module:qualname"`` of its
cell function ``(params, seed) -> dict``, resolved when a job executes —
this module imports no experiment family.  Params capture everything
the cell needs (e.g. the full ``EvalScale``), so workers never consult
the environment.  A new family adds one cell function and one row.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from repro.harness.metrics import JobCounters
from repro.obs.record import dump_active_flight, set_active

CHECKPOINT_VERSION = 1

# ----------------------------------------------------------------------
# Job specs
# ----------------------------------------------------------------------
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: object) -> str:
    """Canonical JSON: sorted keys, no whitespace — the stable hash input
    and the form payloads take in checkpoints and the results store.
    One shared encoder (it holds only its settings) serves every call."""
    return _CANONICAL.encode(obj)


def _json_roundtrip(obj: object) -> object:
    """Normalise a payload through JSON so every execution path (serial,
    pipe, checkpoint) yields byte-identical structures.  JSON float
    round-trips are exact in Python 3, so no precision is lost."""
    return json.loads(canonical_json(obj))


@dataclass(frozen=True)
class JobSpec:
    """One self-describing unit of work.

    ``params`` must be JSON-serialisable; together with ``kind`` and
    ``seed`` it fully determines the job (no hidden environment reads),
    which is what makes the spec-hash a safe resume key.  The hash is
    computed on first use and kept, so ``params`` must not be mutated
    once the spec exists (``dataclasses.replace`` makes a new spec,
    which hashes on its own).
    """

    kind: str
    seed: int
    params: dict = field(default_factory=dict)
    #: Display-only; excluded from the hash.
    label: str = ""

    @cached_property
    def spec_hash(self) -> str:
        digest = hashlib.sha256(canonical_json(
            {"kind": self.kind, "seed": self.seed,
             "params": self.params}).encode()).hexdigest()
        return digest[:16]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "seed": self.seed,
                "params": self.params, "label": self.label}

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        return cls(kind=doc["kind"], seed=doc["seed"],
                   params=doc.get("params", {}),
                   label=doc.get("label", ""))

    def describe(self) -> str:
        return self.label or f"{self.kind}#{self.spec_hash[:8]}"


# ----------------------------------------------------------------------
# Job kinds
# ----------------------------------------------------------------------
def resolve_target(target: str) -> Callable:
    """Resolve ``"module:qualname"`` to the callable it names."""
    module_name, _, qualname = target.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"target must be 'module:qualname', got {target!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def callable_target(fn: Callable) -> Optional[str]:
    """The ``"module:qualname"`` path of ``fn``, or ``None`` when it is
    not importable from a worker (lambda, closure, local function)."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or not qualname or "<" in qualname:
        return None
    try:
        if resolve_target(f"{module}:{qualname}") is not fn:
            return None
    except Exception:
        return None
    return f"{module}:{qualname}"


def run_callable(params: dict, seed: int) -> dict:
    """The ``callable`` kind: ``target(seed, **kwargs)`` for an importable
    target — the replication harness's escape hatch for metric
    extractors."""
    fn = resolve_target(params["target"])
    return {"value": fn(seed, **params.get("kwargs", {}))}


#: kind -> ``"module:qualname"`` of its ``(params, seed) -> dict`` cell.
#: Kind names and params are frozen: they are hashed into spec-hashes
#: that live inside emitted documents.
JOB_KINDS: dict[str, str] = {
    "collective": "repro.harness.collective_runner:run_collective_cell",
    "callable": "repro.harness.jobs:run_callable",
    "fault_cell": "repro.faults.campaign:run_cell",
    "arena_cell": "repro.harness.arena:run_arena_cell",
}


def execute_spec(spec: JobSpec) -> dict:
    """Run one job in the current process; returns the JSON payload."""
    # An earlier job's recorder (same process, or inherited through
    # ``fork``) must not be what a failure of this job dumps.
    set_active(None)
    try:
        target = JOB_KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown job kind {spec.kind!r}; expected one "
                         f"of {sorted(JOB_KINDS)}") from None
    return _json_roundtrip(resolve_target(target)(spec.params, spec.seed))


def _describe_failure(exc: BaseException, reason: str, tag: str) -> str:
    """The error string of a failed job, plus a best-effort flight dump.

    If the job ran a traced simulation, its recorder registered itself as
    the active one; dumping its ring here is the only chance to preserve
    the final events before the worker process dies.  ``tag`` (the job's
    spec-hash) lands in the dump filename, so concurrently-failing
    workers can never collide on a path.  The dump never raises — the
    original job error must win.
    """
    error = f"{type(exc).__name__}: {exc}"
    try:
        path = dump_active_flight(reason, tag=tag)
    except Exception:
        path = None
    return error if path is None else f"{error} [flight recorder: {path}]"


def _subprocess_entry(conn, spec_doc: dict) -> None:
    """Worker-side entry point: run the job, ship payload or error."""
    try:
        payload = execute_spec(JobSpec.from_dict(spec_doc))
        conn.send({"ok": True, "result": payload})
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        error = _describe_failure(
            exc, "job-crash", JobSpec.from_dict(spec_doc).spec_hash)
        try:
            conn.send({"ok": False, "error": error})
        except Exception:
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Outcomes and checkpointing
# ----------------------------------------------------------------------
@dataclass
class JobOutcome:
    """Terminal state of one job."""

    spec: JobSpec
    status: str  # "done" | "failed"
    result: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 1
    elapsed_s: float = 0.0
    from_checkpoint: bool = False
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "done"

    def to_record(self) -> dict:
        return {"v": CHECKPOINT_VERSION,
                "spec_hash": self.spec.spec_hash,
                "spec": self.spec.to_dict(),
                "status": self.status,
                "attempts": self.attempts,
                "elapsed_s": round(self.elapsed_s, 4),
                "error": self.error,
                "result": self.result}

    @classmethod
    def from_record(cls, record: dict) -> "JobOutcome":
        return cls(spec=JobSpec.from_dict(record["spec"]),
                   status=record["status"],
                   result=record.get("result"),
                   error=record.get("error"),
                   attempts=record.get("attempts", 1),
                   elapsed_s=record.get("elapsed_s", 0.0),
                   from_checkpoint=True)


def _is_record(doc: object) -> bool:
    """Does *doc* hold a well-typed spec (str ``kind``, int ``seed``,
    dict ``params``, str ``label``) that re-hashes to its ``spec_hash``,
    a dict ``result`` if it is done, and numbers for ``attempts`` and
    ``elapsed_s``?  Only such a record may stand in for a job."""
    if not isinstance(doc, dict) or not isinstance(doc.get("spec"), dict):
        return False
    if (doc.get("status") == "done"
            and not isinstance(doc.get("result"), dict)):
        return False
    if not all(isinstance(doc.get(key, 0), (int, float))
               for key in ("attempts", "elapsed_s")):
        return False
    try:
        spec = JobSpec.from_dict(doc["spec"])
    except KeyError:
        return False
    # ``bool`` is an ``int``, but ``true`` is not a seed.
    if not (isinstance(spec.kind, str) and isinstance(spec.label, str)
            and isinstance(spec.params, dict)
            and isinstance(spec.seed, int)
            and not isinstance(spec.seed, bool)):
        return False
    return spec.spec_hash == doc.get("spec_hash")


def read_checkpoint(path: str) -> list[dict]:
    """All well-formed records of a checkpoint file, oldest first.

    A truncated final line (interrupted mid-write) is skipped rather
    than treated as corruption — that is the expected crash artefact.
    So is a record whose spec is missing, malformed or does not re-hash
    to its ``spec_hash``, a done record without a dict result, and one
    whose ``attempts`` or ``elapsed_s`` is not a number: its job re-runs.
    """
    records = []
    if not path or not os.path.exists(path):
        return records
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:  # JSONDecodeError, or an over-long int
                continue
            if _is_record(doc):
                records.append(doc)
    return records


def _latest_records(path: str) -> tuple[list[dict], dict[str, dict]]:
    """All records of a checkpoint, and the last one per spec-hash."""
    records = read_checkpoint(path)
    return records, {record["spec_hash"]: record for record in records}


def load_completed(path: str) -> dict[str, JobOutcome]:
    """spec-hash -> outcome for every *successfully completed* job in a
    checkpoint (last record per hash wins; failures are re-run)."""
    return {h: JobOutcome.from_record(r)
            for h, r in _latest_records(path)[1].items()
            if r.get("status") == "done"}


def checkpoint_status(path: str) -> dict:
    """Summary counts for the ``repro jobs`` status subcommand."""
    records, latest = _latest_records(path)
    done = [r for r in latest.values() if r.get("status") == "done"]
    failed = [r for r in latest.values() if r.get("status") != "done"]
    kinds: dict[str, int] = {}
    for r in latest.values():
        kind = r["spec"]["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    return {"path": path,
            "records": len(records),
            "jobs": len(latest),
            "done": len(done),
            "failed": len(failed),
            "retried": sum(1 for r in latest.values()
                           if r.get("attempts", 1) > 1),
            "kinds": kinds,
            "elapsed_s": round(sum(r.get("elapsed_s", 0.0)
                                   for r in done), 3),
            "failures": [{"spec_hash": r["spec_hash"],
                          "label": r["spec"].get("label", ""),
                          "error": r.get("error")} for r in failed]}


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
@dataclass
class _Attempt:
    spec: JobSpec
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class _Active:
    """One in-flight subprocess job."""

    attempt: _Attempt
    proc: object
    conn: object
    started: float
    deadline: Optional[float]


class JobRunner:
    """Execute :class:`JobSpec` lists with isolation, retry, and resume.

    ``workers=1`` with the default ``isolation="auto"`` runs jobs
    in-process — byte-identical to the pre-runner serial harness and
    convenient under debuggers.  Any ``workers>1`` (or
    ``isolation="subprocess"``) runs every job in its own subprocess.
    Timeouts are only enforceable with subprocess isolation.
    """

    def __init__(self, *, workers: int = 1,
                 timeout_s: Optional[float] = None,
                 retries: int = 2, backoff_s: float = 0.5,
                 checkpoint: Optional[str] = None,
                 cache=None,
                 isolation: str = "auto",
                 mp_method: Optional[str] = None,
                 counters: Optional[JobCounters] = None,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isolation not in ("auto", "inproc", "subprocess"):
            raise ValueError(f"unknown isolation {isolation!r}")
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.checkpoint = checkpoint
        #: Read-through run cache: a ``repro.results`` store path (str)
        #: or an open ``ResultsStore``.  Hits skip execution entirely;
        #: completed results are written back in the parent process only
        #: (the store's single-writer contract).
        self.cache = cache
        self._cache_store = None
        self.isolation = isolation
        self.mp_method = mp_method
        self.counters = counters if counters is not None else JobCounters()
        self.progress = progress

    # -- public API ----------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> dict[str, JobOutcome]:
        """Run every spec; returns spec-hash -> :class:`JobOutcome`.

        Duplicate spec-hashes are executed once.  Jobs already completed
        in the checkpoint are skipped and surfaced with
        ``from_checkpoint=True``; jobs found in the results-store cache
        are skipped with ``from_cache=True`` (checkpoint wins when both
        hold a result — it is the more recent artefact of *this* sweep).
        """
        unique: dict[str, JobSpec] = {}
        for spec in specs:
            unique.setdefault(spec.spec_hash, spec)
        self.counters.submitted += len(unique)

        outcomes: dict[str, JobOutcome] = {}
        completed = (load_completed(self.checkpoint)
                     if self.checkpoint else {})
        store = self._cache_handle()
        try:
            # One read of the cache for every hash the checkpoint left.
            hits = (store.get_job_results(
                        [h for h in unique if h not in completed])
                    if store is not None else {})
            pending: list[_Attempt] = []
            for spec_hash, spec in unique.items():
                prior = completed.get(spec_hash)
                if prior is not None:
                    outcomes[spec_hash] = prior
                    self.counters.skipped += 1
                    self._emit(f"skip {spec.describe()} (checkpointed)")
                    continue
                cached = hits.get(spec_hash)
                if cached is not None:
                    outcomes[spec_hash] = JobOutcome(
                        spec=spec, status="done", result=cached,
                        attempts=0, from_cache=True)
                    self.counters.cache_hits += 1
                    self._emit(f"skip {spec.describe()} (cached)")
                else:
                    pending.append(_Attempt(spec))

            if self._inproc():
                for attempt in pending:
                    outcome = self._run_inproc(attempt)
                    self._record(outcomes, outcome)
            else:
                self._run_pool(pending, outcomes)
            return outcomes
        finally:
            self._close_cache()

    # -- internals -----------------------------------------------------
    def _inproc(self) -> bool:
        if self.isolation == "inproc":
            return True
        if self.isolation == "subprocess":
            return False
        return self.workers == 1

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _cache_handle(self):
        """The open :class:`~repro.results.store.ResultsStore`, if any.

        Opened lazily (and imported lazily — ``repro.results`` imports
        back into harness modules) so runners without a cache never
        touch sqlite.
        """
        if self.cache is None:
            return None
        if self._cache_store is None:
            if hasattr(self.cache, "get_job_results"):
                self._cache_store = self.cache
            else:
                from repro.results.store import ResultsStore
                self._cache_store = ResultsStore(str(self.cache))
        return self._cache_store

    def _close_cache(self) -> None:
        """Close a store this runner opened from a path; one the caller
        passed in open stays the caller's to close."""
        if self._cache_store is not self.cache:
            self._cache_store.close()
        self._cache_store = None

    def _record(self, outcomes: dict[str, JobOutcome],
                outcome: JobOutcome) -> None:
        outcomes[outcome.spec.spec_hash] = outcome
        if outcome.ok:
            self.counters.completed += 1
            store = self._cache_handle()
            if store is not None:
                store.put_job_result(outcome.spec, outcome.result)
        else:
            self.counters.failed += 1
        self._checkpoint_write(outcome)
        self._emit(f"{outcome.status} {outcome.spec.describe()} "
                   f"({outcome.elapsed_s:.2f}s, "
                   f"attempt {outcome.attempts})")

    def _checkpoint_write(self, outcome: JobOutcome) -> None:
        if not self.checkpoint:
            return
        parent = os.path.dirname(self.checkpoint)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.checkpoint, "a") as fh:
            fh.write(canonical_json(outcome.to_record()) + "\n")
            fh.flush()

    def _run_inproc(self, attempt: _Attempt) -> JobOutcome:
        """One in-process job, whose garbage is reclaimed as it ends.

        A finished fabric is one big reference cycle (devices and ports,
        calendar entries and QPs, ``metrics.on_idle = net.stop``) that
        the cyclic collector would otherwise reach only at its next rare
        full pass, so a sweep's dead fabrics pile up.  The heap that
        exists before the job is frozen, and one full collection after
        it therefore scans only what the job allocated.  Only the
        outermost runner does this (a nested runner's jobs are reclaimed
        with the job that runs it), and it does so even when the caller
        has disabled the collector: ``gc.disable()`` stops the automatic
        passes, which would leave every fabric of the sweep alive.
        """
        if gc.get_freeze_count():
            return self._attempt_inproc(attempt)
        gc.freeze()
        try:
            return self._attempt_inproc(attempt)
        finally:
            gc.collect()
            gc.unfreeze()

    def _attempt_inproc(self, attempt: _Attempt) -> JobOutcome:
        """Serial execution; retries cover exceptions only (no process
        to crash, no timeout enforcement)."""
        start = time.perf_counter()
        while True:
            attempt.attempts += 1
            try:
                payload = execute_spec(attempt.spec)
            except Exception as exc:
                if attempt.attempts <= self.retries and self._retryable(exc):
                    self.counters.retries += 1
                    continue
                return JobOutcome(
                    spec=attempt.spec, status="failed",
                    error=_describe_failure(exc, "job-failure",
                                            attempt.spec.spec_hash),
                    attempts=attempt.attempts,
                    elapsed_s=time.perf_counter() - start)
            return JobOutcome(spec=attempt.spec, status="done",
                              result=payload, attempts=attempt.attempts,
                              elapsed_s=time.perf_counter() - start)

    @staticmethod
    def _retryable(exc: Exception) -> bool:
        """In-process retry policy: only infrastructure-ish errors.
        Deterministic job exceptions would fail identically again."""
        return isinstance(exc, (OSError, MemoryError))

    # -- subprocess pool -----------------------------------------------
    def _run_pool(self, pending: list[_Attempt],
                  outcomes: dict[str, JobOutcome]) -> None:
        # Only this path needs multiprocessing (and the socket and pickle
        # machinery it loads); an in-process sweep never imports it.
        import multiprocessing

        # ``fork`` where available (cheap, inherits the warm interpreter),
        # else ``spawn``.  Callers needing cold processes pass ``"spawn"``
        # (the performance ledger does, to price a spawned job).
        method = self.mp_method or (
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        ctx = multiprocessing.get_context(method)
        active: list[_Active] = []
        try:
            while pending or active:
                self._launch_ready(ctx, pending, active, outcomes)
                if not active:
                    # Everything pending is backing off; sleep to the
                    # earliest retry time.
                    if pending:
                        delay = min(a.not_before for a in pending) \
                            - time.monotonic()
                        if delay > 0:
                            time.sleep(min(delay, 0.25))
                    continue
                self._reap(active, pending, outcomes)
        finally:
            for slot in active:  # interrupted: leave no orphans
                self._kill(slot)

    def _launch_ready(self, ctx, pending: list[_Attempt],
                      active: list[_Active],
                      outcomes: dict[str, JobOutcome]) -> None:
        now = time.monotonic()
        launchable = [a for a in pending if a.not_before <= now]
        for attempt in launchable:
            if len(active) >= self.workers:
                break
            pending.remove(attempt)
            attempt.attempts += 1
            try:
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_subprocess_entry,
                                   args=(child_conn,
                                         attempt.spec.to_dict()),
                                   daemon=True)
                proc.start()
                child_conn.close()
            except Exception:
                # Restricted environment: degrade to in-process for this
                # attempt so the sweep still completes.
                attempt.attempts -= 1
                outcome = self._run_inproc(attempt)
                self._record(outcomes, outcome)
                continue
            started = time.monotonic()
            deadline = (started + self.timeout_s
                        if self.timeout_s else None)
            active.append(_Active(attempt, proc, parent_conn, started,
                                  deadline))

    def _reap(self, active: list[_Active], pending: list[_Attempt],
              outcomes: dict[str, JobOutcome]) -> None:
        from multiprocessing.connection import wait

        wait([slot.conn for slot in active], timeout=0.05)
        now = time.monotonic()
        for slot in list(active):
            message = None
            if slot.conn.poll(0):
                try:
                    message = slot.conn.recv()
                except (EOFError, OSError):
                    message = None
            if message is not None:
                active.remove(slot)
                slot.proc.join()
                slot.conn.close()
                self._finish(slot, message, outcomes)
            elif slot.deadline is not None and now > slot.deadline:
                active.remove(slot)
                self._kill(slot)
                self.counters.timeouts += 1
                self._retry_or_fail(
                    slot, pending, outcomes,
                    error=f"timeout after {self.timeout_s}s")
            elif not slot.proc.is_alive():
                active.remove(slot)
                slot.conn.close()
                self.counters.crashes += 1
                self._retry_or_fail(
                    slot, pending, outcomes,
                    error=f"worker crashed "
                          f"(exitcode {slot.proc.exitcode})")

    def _finish(self, slot: _Active, message: dict,
                outcomes: dict[str, JobOutcome]) -> None:
        # A job that raised is deterministic: recorded failed, not retried.
        ok = bool(message.get("ok"))
        self._record(outcomes, JobOutcome(
            spec=slot.attempt.spec, status="done" if ok else "failed",
            result=message.get("result") if ok else None,
            error=None if ok else message.get("error",
                                              "unknown job error"),
            attempts=slot.attempt.attempts,
            elapsed_s=time.monotonic() - slot.started))

    def _retry_or_fail(self, slot: _Active, pending: list[_Attempt],
                       outcomes: dict[str, JobOutcome],
                       error: str) -> None:
        attempt = slot.attempt
        if attempt.attempts <= self.retries:
            self.counters.retries += 1
            attempt.not_before = time.monotonic() + \
                self.backoff_s * (2 ** (attempt.attempts - 1))
            pending.append(attempt)
            self._emit(f"retry {attempt.spec.describe()} after {error} "
                       f"(attempt {attempt.attempts})")
        else:
            self._record(outcomes, JobOutcome(
                spec=attempt.spec, status="failed", error=error,
                attempts=attempt.attempts,
                elapsed_s=time.monotonic() - slot.started))

    @staticmethod
    def _kill(slot: _Active) -> None:
        try:
            slot.proc.terminate()
            slot.proc.join(1.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(1.0)
        finally:
            try:
                slot.conn.close()
            except OSError:
                pass


def run_jobs(specs: Sequence[JobSpec], **kwargs) -> dict[str, JobOutcome]:
    """One-shot convenience wrapper around :class:`JobRunner`."""
    return JobRunner(**kwargs).run(specs)


def raise_on_failures(outcomes: dict[str, JobOutcome]) -> None:
    """Raise a summarising :class:`RuntimeError` if any job failed."""
    failures = [o for o in outcomes.values() if not o.ok]
    if failures:
        detail = "; ".join(
            f"{o.spec.describe()}: {o.error}" for o in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        raise RuntimeError(
            f"{len(failures)} job(s) failed: {detail}{more}")
