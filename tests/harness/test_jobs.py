"""Job-runner semantics: isolation, retry, timeout, resume, determinism,
and reclaiming each in-process job's garbage as the job ends."""

import dataclasses
import gc
import hashlib
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.collective_runner import EvalScale
from repro.harness.jobs import (JobOutcome, JobSpec, callable_target,
                                canonical_json, checkpoint_status,
                                load_completed, raise_on_failures,
                                read_checkpoint, run_jobs)
from repro.harness.metrics import JobCounters
from repro.harness.replication import replicate, replicate_many
from repro.harness.sweep import DCQCN_SWEEP, run_fig5_sweep, sweep_job_specs

TINY_SCALE = EvalScale(num_tors=2, num_spines=2, nics_per_tor=2,
                       collective_bytes=60_000)


# ----------------------------------------------------------------------
# Worker-side helpers (module-level so they are importable from workers)
# ----------------------------------------------------------------------
def square(seed):
    return float(seed * seed)


def seed_metrics(seed):
    return {"seed": float(seed), "double": float(2 * seed)}


def crash_unless_marker(seed, marker=""):
    """os._exit (a hard worker crash, no exception) on the first attempt;
    succeed once the marker file exists."""
    if os.path.exists(marker):
        return seed + 100
    with open(marker, "w") as fh:
        fh.write("attempted\n")
    os._exit(3)


def always_crash(seed):
    os._exit(3)


def sleep_forever(seed):
    time.sleep(60)
    return seed


def always_raises(seed):
    raise ValueError(f"deterministic failure for seed {seed}")


def quick_arena_specs(seed=1):
    """Three quick arena cells on the 8-NIC leaf-spine."""
    from repro.harness.arena import QUICK_TOPOLOGIES, arena_job_specs
    return arena_job_specs(
        lbs=("ecmp", "rps", "reps"), transports=("nic_sr",),
        workloads=("alltoall",),
        topologies={"leaf_spine": QUICK_TOPOLOGIES["leaf_spine"]},
        seeds=(seed,))


def nested_arena_run(seed):
    """Quick arena cells on a runner of the job's own: the smallest
    freeze count any inner job ended with."""
    counts = []
    raise_on_failures(run_jobs(
        quick_arena_specs(seed),
        progress=lambda message: counts.append(gc.get_freeze_count())))
    return min(counts)


def _callable_spec(fn, seed, **kwargs):
    return JobSpec(kind="callable", seed=seed,
                   params={"target": callable_target(fn),
                           "kwargs": kwargs})


#: Any JSON value (NaN and the infinities included: ``json`` writes and
#: reads them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)

SPEC_FIELDS = ("kind", "seed", "params", "label")


def _rehash(spec: dict) -> str:
    """The spec-hash a reader recomputes for a spec document."""
    return hashlib.sha256(canonical_json(
        {"kind": spec["kind"], "seed": spec["seed"],
         "params": spec.get("params", {})}).encode()).hexdigest()[:16]


@st.composite
def mangled_records(draw):
    """A checkpoint record whose spec fields are kept, deleted or
    replaced by any JSON value, plus added fields; its ``spec_hash`` is
    the spec's true re-hash where one exists, so the type checks, not
    the hash check, must catch a wrong-typed field."""
    spec = {"kind": "callable", "seed": 1,
            "params": {"target": "m:f"}, "label": "x"}
    for key in SPEC_FIELDS:
        action = draw(st.sampled_from(("keep", "delete", "replace")))
        if action == "delete":
            del spec[key]
        elif action == "replace":
            spec[key] = draw(JSON_VALUES)
    spec.update(draw(st.dictionaries(st.text(), JSON_VALUES, max_size=2)))
    try:
        spec_hash = _rehash(spec)
    except KeyError:
        spec_hash = draw(JSON_VALUES)
    return {"v": 1, "spec_hash": spec_hash, "spec": spec,
            "status": draw(st.sampled_from(("done", "failed"))),
            "attempts": 1, "elapsed_s": 0.1, "error": None,
            "result": {"value": 1.0}}


class TestJobSpec:
    def test_spec_hash_is_stable_and_param_sensitive(self):
        a = JobSpec(kind="callable", seed=1, params={"target": "m:f"})
        b = JobSpec(kind="callable", seed=1, params={"target": "m:f"},
                    label="display only")
        c = JobSpec(kind="callable", seed=2, params={"target": "m:f"})
        assert a.spec_hash == b.spec_hash  # label excluded
        assert a.spec_hash != c.spec_hash
        assert a == JobSpec.from_dict(a.to_dict())

    def test_spec_hash_is_computed_once_per_spec(self, monkeypatch):
        import dataclasses
        import hashlib

        from repro.harness import jobs

        def fresh(spec):
            return hashlib.sha256(jobs.canonical_json(
                {"kind": spec.kind, "seed": spec.seed,
                 "params": spec.params}).encode()).hexdigest()[:16]

        canonical_json = jobs.canonical_json
        encoded = []
        monkeypatch.setattr(
            jobs, "canonical_json",
            lambda obj: encoded.append(obj) or canonical_json(obj))
        spec = JobSpec(kind="callable", seed=1,
                       params={"target": "m:f", "kwargs": {"b": 2, "a": 1}})
        assert len({spec.spec_hash for _ in range(3)}) == 1
        assert len(encoded) == 1
        monkeypatch.undo()
        assert spec.spec_hash == fresh(spec)
        # A replaced spec is a new spec: it hashes on its own.
        other = dataclasses.replace(spec, seed=2)
        assert other.spec_hash == fresh(other) != spec.spec_hash
        assert JobSpec.from_dict(spec.to_dict()).spec_hash == spec.spec_hash

    def test_a_quick_arena_spec_hash_is_pinned(self):
        """Every spec-hash lives inside emitted documents and run caches:
        an encoder change that moves them fails here by name."""
        from repro.harness.arena import arena_job_specs
        spec = arena_job_specs(quick=True, seeds=(7,))[0]
        assert spec.label == "ecmp/nic_sr/dcqcn/alltoall/leaf_spine/s7"
        assert spec.spec_hash == "5407403b0323e729"

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_canonical_json_is_sorted_compact_dumps(self, value):
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))

    def test_callable_target_rejects_lambdas(self):
        assert callable_target(lambda s: s) is None
        assert callable_target(square) == \
            f"{__name__}:square"

    def test_unknown_kind_fails_cleanly(self):
        outcomes = run_jobs([JobSpec(kind="nope", seed=1)])
        (outcome,) = outcomes.values()
        assert not outcome.ok
        with pytest.raises(RuntimeError, match="1 job"):
            raise_on_failures(outcomes)


class TestJobKinds:
    def test_every_kind_names_an_importable_cell_function(self):
        from repro.harness.jobs import JOB_KINDS, resolve_target
        assert set(JOB_KINDS) == {"collective", "callable", "fault_cell",
                                  "arena_cell"}
        for target in JOB_KINDS.values():
            assert callable(resolve_target(target))

    def test_the_runner_module_imports_no_experiment_family(self):
        import ast
        import repro.harness.jobs as jobs
        with open(jobs.__file__) as fh:
            tree = ast.parse(fh.read())
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert imported & {"repro.harness.arena", "repro.harness.bench",
                           "repro.harness.collective_runner",
                           "repro.faults.campaign"} == set()

    def test_unknown_kind_is_rejected_with_the_known_ones(self):
        from repro.harness.jobs import execute_spec
        with pytest.raises(ValueError, match="unknown job kind 'nope'"):
            execute_spec(JobSpec(kind="nope", seed=1))

    def test_a_cached_spec_never_resolves_its_target(self, tmp_path,
                                                     monkeypatch):
        import repro.harness.jobs as jobs
        spec = _callable_spec(square, 3)
        cache = str(tmp_path / "cache.sqlite")
        assert run_jobs([spec], cache=cache)[spec.spec_hash].ok
        monkeypatch.setattr(jobs, "resolve_target", None)
        warm = run_jobs([spec], cache=cache)[spec.spec_hash]
        assert warm.from_cache and warm.result == {"value": 9}


class TestRunnerCore:
    def test_serial_inproc_execution(self):
        specs = [_callable_spec(square, s) for s in (1, 2, 3)]
        outcomes = run_jobs(specs, workers=1)
        assert [outcomes[s.spec_hash].result["value"]
                for s in specs] == [1.0, 4.0, 9.0]
        assert all(o.ok and not o.from_checkpoint
                   for o in outcomes.values())

    def test_parallel_subprocess_execution(self):
        specs = [_callable_spec(square, s) for s in range(1, 7)]
        counters = JobCounters()
        outcomes = run_jobs(specs, workers=3, counters=counters)
        assert [outcomes[s.spec_hash].result["value"]
                for s in specs] == [1.0, 4.0, 9.0, 16.0, 25.0, 36.0]
        assert counters.completed == 6
        assert counters.failed == 0

    def test_duplicate_specs_run_once(self):
        spec = _callable_spec(square, 5)
        counters = JobCounters()
        outcomes = run_jobs([spec, spec, spec], counters=counters)
        assert counters.submitted == 1
        assert len(outcomes) == 1

    def test_job_exception_fails_without_retry(self):
        counters = JobCounters()
        outcomes = run_jobs([_callable_spec(always_raises, 1)],
                            workers=2, counters=counters)
        (outcome,) = outcomes.values()
        assert not outcome.ok
        assert "deterministic failure" in outcome.error
        assert outcome.attempts == 1
        assert counters.retries == 0


class TestCrashAndTimeout:
    def test_worker_crash_is_retried_until_success(self, tmp_path):
        marker = str(tmp_path / "attempted.flag")
        counters = JobCounters()
        outcomes = run_jobs(
            [_callable_spec(crash_unless_marker, 7, marker=marker)],
            workers=2, retries=2, backoff_s=0.01, counters=counters)
        (outcome,) = outcomes.values()
        assert outcome.ok
        assert outcome.result["value"] == 107
        assert outcome.attempts == 2
        assert counters.crashes == 1
        assert counters.retries == 1

    def test_worker_crash_exhausts_bounded_retries(self):
        counters = JobCounters()
        outcomes = run_jobs(
            [_callable_spec(always_crash, 7)],
            workers=2, retries=1, backoff_s=0.01, counters=counters)
        (outcome,) = outcomes.values()
        assert not outcome.ok
        assert outcome.attempts == 2  # 1 try + 1 retry
        assert counters.failed == 1

    def test_timeout_kills_the_worker(self):
        counters = JobCounters()
        start = time.monotonic()
        outcomes = run_jobs([_callable_spec(sleep_forever, 1)],
                            workers=2, timeout_s=0.5, retries=0,
                            counters=counters)
        elapsed = time.monotonic() - start
        (outcome,) = outcomes.values()
        assert not outcome.ok
        assert "timeout" in outcome.error
        assert counters.timeouts == 1
        assert elapsed < 30  # the 60s sleep was killed, not awaited

    def test_timeout_then_retry_counts_both(self):
        counters = JobCounters()
        outcomes = run_jobs([_callable_spec(sleep_forever, 1)],
                            workers=2, timeout_s=0.3, retries=1,
                            backoff_s=0.01, counters=counters)
        (outcome,) = outcomes.values()
        assert not outcome.ok
        assert outcome.attempts == 2
        assert counters.timeouts == 2
        assert counters.retries == 1


class TestCheckpointResume:
    def test_completed_jobs_are_skipped_on_resume(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        first = [_callable_spec(square, s) for s in (1, 2)]
        run_jobs(first, workers=2, checkpoint=ckpt)

        both = first + [_callable_spec(square, 3)]
        counters = JobCounters()
        outcomes = run_jobs(both, workers=2, checkpoint=ckpt,
                            counters=counters)
        assert counters.skipped == 2
        assert counters.completed == 1  # only the new job ran
        assert [outcomes[s.spec_hash].result["value"]
                for s in both] == [1.0, 4.0, 9.0]
        assert [outcomes[s.spec_hash].from_checkpoint
                for s in both] == [True, True, False]

    def test_failed_checkpoint_entries_are_rerun(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        run_jobs([_callable_spec(always_raises, 1)], checkpoint=ckpt)
        assert checkpoint_status(ckpt)["failed"] == 1

        counters = JobCounters()
        run_jobs([_callable_spec(always_raises, 1)], checkpoint=ckpt,
                 counters=counters)
        assert counters.skipped == 0  # failures never satisfy resume
        assert counters.failed == 1

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        spec = _callable_spec(square, 2)
        run_jobs([spec], checkpoint=ckpt)
        with open(ckpt, "a") as fh:
            fh.write('{"spec_hash": "deadbeef", "status": "do')  # crash
        assert len(read_checkpoint(ckpt)) == 1
        assert spec.spec_hash in load_completed(ckpt)

    def test_an_int_too_long_to_parse_is_skipped(self, tmp_path):
        """``json`` refuses an int of more than 4 300 digits with a
        ``ValueError`` that is not a ``JSONDecodeError``."""
        ckpt = str(tmp_path / "ckpt.jsonl")
        spec = _callable_spec(square, 2)
        run_jobs([spec], checkpoint=ckpt)
        with open(ckpt, "a") as fh:
            fh.write('{"attempts": ' + "9" * 5_000 + "}\n")
        assert list(load_completed(ckpt)) == [spec.spec_hash]
        assert checkpoint_status(ckpt)["records"] == 1

    def test_checkpoint_status_summary(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        run_jobs([_callable_spec(square, s) for s in (1, 2)],
                 checkpoint=ckpt)
        run_jobs([_callable_spec(always_raises, 9)], checkpoint=ckpt)
        status = checkpoint_status(ckpt)
        assert status["jobs"] == 3
        assert status["done"] == 2
        assert status["failed"] == 1
        assert status["kinds"] == {"callable": 3}
        assert len(status["failures"]) == 1

    def test_missing_checkpoint_reads_empty(self, tmp_path):
        assert read_checkpoint(str(tmp_path / "absent.jsonl")) == []
        assert checkpoint_status(str(tmp_path / "absent.jsonl"))["jobs"] == 0

    def test_a_record_that_does_not_rehash_is_not_reused(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        one, two = _callable_spec(square, 1), _callable_spec(square, 2)
        run_jobs([one], checkpoint=ckpt)
        (record,) = read_checkpoint(ckpt)
        # Seed 1's spec and result, filed under seed 2's hash.
        with open(ckpt, "a") as fh:
            fh.write(json.dumps({**record, "spec_hash": two.spec_hash}) + "\n")
        assert list(load_completed(ckpt)) == [one.spec_hash]
        outcome = run_jobs([two], checkpoint=ckpt)[two.spec_hash]
        assert outcome.result == {"value": 4.0}
        assert not outcome.from_checkpoint

    @pytest.mark.parametrize("spec", [{}, {"kind": "callable"}, "callable",
                                      None, [1]])
    def test_a_malformed_record_is_skipped(self, tmp_path, spec):
        ckpt = str(tmp_path / "ckpt.jsonl")
        done = _callable_spec(square, 3)
        run_jobs([done], checkpoint=ckpt)
        with open(ckpt, "a") as fh:
            fh.write(json.dumps({"spec_hash": "0123456789abcdef",
                                 "spec": spec, "status": "done",
                                 "result": {"value": 0.0}}) + "\n")
        assert [r["spec_hash"] for r in read_checkpoint(ckpt)] \
            == [done.spec_hash]
        specs = [done, _callable_spec(square, 4)]
        outcomes = run_jobs(specs, checkpoint=ckpt)
        assert [outcomes[s.spec_hash].result["value"]
                for s in specs] == [9.0, 16.0]
        status = checkpoint_status(ckpt)
        assert (status["jobs"], status["done"]) == (2, 2)

    def test_a_done_record_without_a_result_is_rerun(self, tmp_path):
        from repro.harness.arena import (QUICK_TOPOLOGIES, arena_job_specs,
                                         run_arena)
        axes = {"lbs": ("ecmp",), "transports": ("nic_sr",),
                "workloads": ("alltoall",),
                "topologies": {"leaf_spine": QUICK_TOPOLOGIES["leaf_spine"]}}
        (spec,) = arena_job_specs(**axes)
        ckpt = str(tmp_path / "ckpt.jsonl")
        # The spec re-hashes, but the done record carries no result.
        with open(ckpt, "w") as fh:
            fh.write(json.dumps(
                JobOutcome(spec=spec, status="done").to_record()) + "\n")
        counters = JobCounters()
        doc = run_arena(checkpoint=ckpt, counters=counters, **axes)
        assert counters.skipped == 0
        (record,) = read_checkpoint(ckpt)
        assert doc["cells"][0]["tail_ns"] == record["result"]["tail_ns"] > 0

    @pytest.mark.parametrize("field,value", [
        ("kind", ["x"]), ("kind", {"a": 1}), ("seed", "1"), ("seed", True),
        ("seed", 1.0), ("params", [1]), ("label", 3)])
    def test_a_wrong_typed_spec_field_is_skipped(self, tmp_path, field,
                                                 value):
        """The spec re-hashes to its ``spec_hash``, but a field has the
        wrong type: the record is skipped, so ``repro jobs
        --checkpoint`` (``checkpoint_status``) reports only the good
        one."""
        ckpt = str(tmp_path / "ckpt.jsonl")
        good = _callable_spec(square, 6)
        run_jobs([good], checkpoint=ckpt)
        spec = {"kind": "callable", "seed": 1, "params": {}, "label": "",
                field: value}
        with open(ckpt, "a") as fh:
            fh.write(json.dumps({"spec_hash": _rehash(spec), "spec": spec,
                                 "status": "done",
                                 "result": {"value": 0.0}}) + "\n")
        assert [r["spec_hash"] for r in read_checkpoint(ckpt)] \
            == [good.spec_hash]
        assert list(load_completed(ckpt)) == [good.spec_hash]
        status = checkpoint_status(ckpt)
        assert (status["jobs"], status["kinds"]) == (1, {"callable": 1})

    @given(st.lists(mangled_records(), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_any_record_line_is_a_record_or_skipped(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "ckpt.jsonl")
            with open(ckpt, "w") as fh:
                for record in records:
                    fh.write(json.dumps(record) + "\n")
            kept = read_checkpoint(ckpt)
            completed = load_completed(ckpt)
            status = checkpoint_status(ckpt)
        for record in kept:
            spec = JobSpec.from_dict(record["spec"])
            assert isinstance(spec.kind, str)
            assert type(spec.seed) is int
            assert isinstance(spec.params, dict)
            assert isinstance(spec.label, str)
        assert set(completed) <= {r["spec_hash"] for r in kept}
        assert status["records"] == len(kept)

    @pytest.mark.parametrize("field", ["attempts", "elapsed_s"])
    def test_a_non_numeric_attempts_or_elapsed_is_skipped(self, tmp_path,
                                                          field):
        ckpt = str(tmp_path / "ckpt.jsonl")
        spec = _callable_spec(square, 5)
        run_jobs([spec], checkpoint=ckpt)
        (record,) = read_checkpoint(ckpt)
        with open(ckpt, "a") as fh:
            fh.write(json.dumps({**record, field: "x"}) + "\n")
        status = checkpoint_status(ckpt)
        assert (status["jobs"], status["done"], status["retried"]) \
            == (1, 1, 0)
        assert read_checkpoint(ckpt) == [record]


def live_networks():
    from repro.harness.network import Network
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Network))


class TestReclaimingFabrics:
    """An in-process job's fabric is freed as the job ends, not at the
    cyclic collector's next full pass.  The collector is at its
    defaults except where a test disables it."""

    @staticmethod
    def run_watched(specs, **kwargs):
        """``run_jobs`` in-process, plus (first word of each progress
        message, Networks alive then that were not alive before)."""
        assert not gc.get_freeze_count()
        gc.collect()
        before = live_networks()    # kept alive by earlier tests
        seen = []
        outcomes = run_jobs(specs, progress=lambda message: seen.append(
            (message.split()[0], live_networks() - before)), **kwargs)
        assert gc.get_freeze_count() == 0
        return outcomes, seen

    def test_no_fabric_outlives_its_job(self):
        assert gc.isenabled()
        specs = quick_arena_specs()
        outcomes, seen = self.run_watched(specs)
        assert all(outcome.ok for outcome in outcomes.values())
        assert seen == [("done", 0)] * len(specs)

    def test_a_job_that_raises_leaves_no_fabric(self):
        good = quick_arena_specs()[0]
        # ``int(params["bytes"])`` raises once the Network is built.
        bad = dataclasses.replace(good,
                                  params={**good.params, "bytes": "many"})
        outcomes, seen = self.run_watched([bad, good])
        assert "ValueError" in outcomes[bad.spec_hash].error
        assert seen == [("failed", 0), ("done", 0)]

    @pytest.mark.parametrize("source", ["cache", "checkpoint"])
    def test_a_run_with_nothing_to_execute_never_freezes(
            self, tmp_path, monkeypatch, source):
        specs = quick_arena_specs()
        opts = {source: str(tmp_path / "store")}
        run_jobs(specs, **opts)
        freeze = gc.freeze
        frozen = []
        monkeypatch.setattr(gc, "freeze",
                            lambda: frozen.append(1) or freeze())
        outcomes, seen = self.run_watched(specs, **opts)
        assert all(o.from_cache or o.from_checkpoint
                   for o in outcomes.values())
        assert seen == [("skip", 0)] * len(specs)
        assert frozen == []

    def test_a_nested_runner_leaves_the_freeze_to_the_outermost(self):
        spec = _callable_spec(nested_arena_run, 1)
        outcomes, seen = self.run_watched([spec])
        # Every inner job ended inside the outer job's frozen bracket.
        assert outcomes[spec.spec_hash].result["value"] > 0
        assert seen == [("done", 0)]

    def test_a_disabled_collector_still_gets_its_fabrics_back(self):
        specs = quick_arena_specs()
        gc.disable()
        try:
            _, seen = self.run_watched(specs)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [("done", 0)] * len(specs)


class TestSweepIntegration:
    CONDS = DCQCN_SWEEP[:2]
    SCHEMES = ("ecmp", "themis")

    @staticmethod
    def _fingerprint(result):
        """Canonical byte-level encoding of an aggregated SweepResult."""
        return json.dumps(
            {f"{ti:g},{td:g}": {scheme: vars(run)
                                for scheme, run in row.items()}
             for (ti, td), row in result.runs.items()},
            sort_keys=True)

    def test_sweep_specs_are_deterministic(self):
        a = sweep_job_specs("allreduce", schemes=self.SCHEMES,
                            conditions=self.CONDS, scale=TINY_SCALE)
        b = sweep_job_specs("allreduce", schemes=self.SCHEMES,
                            conditions=self.CONDS, scale=TINY_SCALE)
        assert [s.spec_hash for s in a] == [s.spec_hash for s in b]
        assert len({s.spec_hash for s in a}) == len(a)

    def test_golden_serial_equals_parallel(self):
        """The acceptance-gate invariant: parallel aggregation is
        bitwise-identical to serial."""
        serial = run_fig5_sweep("allreduce", schemes=self.SCHEMES,
                                conditions=self.CONDS, scale=TINY_SCALE,
                                workers=1)
        parallel = run_fig5_sweep("allreduce", schemes=self.SCHEMES,
                                  conditions=self.CONDS, scale=TINY_SCALE,
                                  workers=4)
        assert self._fingerprint(serial) == self._fingerprint(parallel)

    def test_sweep_resume_roundtrip(self, tmp_path):
        ckpt = str(tmp_path / "sweep.jsonl")
        full = run_fig5_sweep("allreduce", schemes=self.SCHEMES,
                              conditions=self.CONDS, scale=TINY_SCALE,
                              workers=2, checkpoint=ckpt)
        counters = JobCounters()
        resumed = run_fig5_sweep("allreduce", schemes=self.SCHEMES,
                                 conditions=self.CONDS, scale=TINY_SCALE,
                                 workers=2, checkpoint=ckpt,
                                 counters=counters)
        assert counters.skipped == len(self.CONDS) * len(self.SCHEMES)
        assert counters.completed == 0
        assert self._fingerprint(full) == self._fingerprint(resumed)


class TestReplicationIntegration:
    def test_parallel_replicate_matches_serial(self):
        serial = replicate(square, seeds=(1, 2, 3), name="sq", workers=1)
        parallel = replicate(square, seeds=(1, 2, 3), name="sq",
                             workers=3)
        assert serial == parallel
        assert parallel.values == (1.0, 4.0, 9.0)

    def test_parallel_replicate_many(self):
        stats = replicate_many(seed_metrics, seeds=(1, 2), workers=2)
        assert stats["double"].values == (2.0, 4.0)

    @pytest.mark.parametrize("cached, replicator, problem", [
        ({"version": 1}, replicate, "missing key 'value'"),
        ({"value": "x"}, replicate, "value is not a number"),
        ({"value": 2.0}, replicate_many, "value is not an object"),
    ])
    def test_stale_cached_value_names_the_seed(self, tmp_path, cached,
                                               replicator, problem):
        """A cached row of another shape (a stale or corrupted run
        cache) is one error naming its seed and the missing or mistyped
        ``value``, not a bare ``KeyError``."""
        import math
        from repro.results.store import ResultsStore
        db = str(tmp_path / "cache.sqlite")
        spec = JobSpec(kind="callable", seed=4,
                       params={"target": "math:sqrt"})
        with ResultsStore(db) as store:
            store.put_job_result(spec, cached)
        with pytest.raises(ValueError) as exc:
            replicator(math.sqrt, seeds=(4,), workers=2, cache=db)
        assert "seed 4" in str(exc.value)
        assert problem in str(exc.value)

    def test_lambda_falls_back_to_serial(self):
        stat = replicate(lambda s: float(s), seeds=(4, 5), workers=4)
        assert stat.values == (4.0, 5.0)


# ----------------------------------------------------------------------
# Injected infrastructure faults
# ----------------------------------------------------------------------
class TestInjectedFaultHook:
    """Retry-with-backoff exercised by a deterministic infrastructure
    fault: the ``callable`` target itself hard-kills its worker, keyed by
    a marker path in its ``kwargs`` — no side door into the worker."""

    def test_injected_crash_is_retried_to_success(self, tmp_path):
        marker = str(tmp_path / "hook.flag")
        counters = JobCounters()
        outcomes = run_jobs(
            [_callable_spec(crash_unless_marker, 6, marker=marker)],
            workers=2, retries=2, backoff_s=0.01, counters=counters)
        (outcome,) = outcomes.values()
        assert outcome.ok
        assert outcome.result["value"] == 106
        assert outcome.attempts == 2
        assert counters.crashes == 1
        assert counters.retries == 1

    def test_injected_crash_exhausts_retries(self):
        counters = JobCounters()
        outcomes = run_jobs([_callable_spec(always_crash, 2)],
                            workers=2, retries=1, backoff_s=0.01,
                            counters=counters)
        (outcome,) = outcomes.values()
        assert not outcome.ok
        assert outcome.attempts == 2
        assert counters.crashes == 2

    def test_hook_is_inert_when_unset(self, tmp_path):
        marker = tmp_path / "hook.flag"
        marker.write_text("already attempted\n")
        counters = JobCounters()
        outcomes = run_jobs(
            [_callable_spec(crash_unless_marker, 3, marker=str(marker))],
            workers=2, counters=counters)
        (outcome,) = outcomes.values()
        assert outcome.ok and outcome.attempts == 1
        assert counters.crashes == 0
