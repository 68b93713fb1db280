"""Run-cache semantics: warm re-runs execute zero jobs, same bytes.

The acceptance property of the results store as a cache: it must be
*semantically invisible*.  A cold run and a cache-warm re-run of the
same spec list produce byte-identical output documents; the only
observable difference is the :class:`JobCounters` bookkeeping.
"""

import json
import multiprocessing
import traceback

from repro.faults.campaign import run_campaign
from repro.faults.scenarios import builtin
from repro.harness import arena
from repro.harness.jobs import JobRunner, JobSpec, callable_target
from repro.harness.metrics import JobCounters
from repro.results.store import ResultsStore


# Module-level so subprocess workers can import them by path.
def square(seed):
    return float(seed * seed)


def always_raises(seed):
    raise ValueError(f"deterministic failure for seed {seed}")


#: Two overlapping tiny arena grids (``ecmp`` and ``reps`` in both).
WRITER_GRIDS = (("ecmp", "rps", "reps"), ("ecmp", "reps", "prime"))


def _grid_kwargs(lbs):
    return dict(lbs=lbs, transports=("nic_sr", "ideal"), ccs=("dcqcn",),
                workloads=("alltoall",),
                topologies={
                    "leaf_spine": arena.QUICK_TOPOLOGIES["leaf_spine"]},
                seeds=(1,), quick=True, message_bytes=4_000)


def _arena_writer(db, lbs, start, results):
    """One spawned parent: its own arena run through the shared store."""
    try:
        start.wait(timeout=60)
        doc = arena.run_arena(cache=db, **_grid_kwargs(lbs))
        results.put(("ok", len(doc["cells"])))
    except Exception:  # reported to the test, not swallowed
        results.put(("error", traceback.format_exc()))


def _spec(fn, seed, **kwargs):
    return JobSpec(kind="callable", seed=seed,
                   params={"target": callable_target(fn),
                           "kwargs": kwargs})


class TestRunnerCache:
    def test_warm_run_executes_nothing(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        specs = [_spec(square, s) for s in (1, 2, 3)]

        cold = JobCounters()
        first = JobRunner(cache=db, counters=cold).run(specs)
        assert cold.executed == 3 and cold.cache_hits == 0

        warm = JobCounters()
        second = JobRunner(cache=db, counters=warm).run(specs)
        assert warm.executed == 0
        assert warm.cache_hits == 3
        assert warm.submitted == 3
        for spec in specs:
            a = first[spec.spec_hash]
            b = second[spec.spec_hash]
            assert b.from_cache and not a.from_cache
            assert b.attempts == 0
            assert a.result == b.result

    def test_counters_summary_reports_cache_hits(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        JobRunner(cache=db).run([_spec(square, 1)])
        warm = JobCounters()
        JobRunner(cache=db, counters=warm).run([_spec(square, 1)])
        assert warm.summary()["jobs_cache_hits"] == 1
        assert "cached" in str(warm)

    def test_partial_overlap_executes_only_new_specs(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        JobRunner(cache=db).run([_spec(square, s) for s in (1, 2)])
        counters = JobCounters()
        outcomes = JobRunner(cache=db, counters=counters).run(
            [_spec(square, s) for s in (1, 2, 3)])
        assert counters.cache_hits == 2
        assert counters.executed == 1
        assert all(o.ok for o in outcomes.values())

    def test_failures_are_not_cached(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        spec = _spec(always_raises, 1)
        JobRunner(cache=db, retries=0).run([spec])
        with ResultsStore(db) as store:
            assert store.get_job_result(spec.spec_hash) is None
        counters = JobCounters()
        outcomes = JobRunner(cache=db, retries=0,
                             counters=counters).run([spec])
        assert counters.cache_hits == 0
        assert counters.executed == 1
        assert not outcomes[spec.spec_hash].ok

    def test_checkpoint_takes_precedence_over_cache(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        ckpt = str(tmp_path / "ckpt.jsonl")
        spec = _spec(square, 4)
        JobRunner(cache=db, checkpoint=ckpt).run([spec])
        counters = JobCounters()
        outcomes = JobRunner(cache=db, checkpoint=ckpt,
                             counters=counters).run([spec])
        out = outcomes[spec.spec_hash]
        assert out.from_checkpoint and not out.from_cache
        assert counters.skipped == 1 and counters.cache_hits == 0

    def test_one_cache_read_for_what_the_checkpoint_left(self, tmp_path):
        """A run asks the store once, for the unique hashes the
        checkpoint did not settle; a spec held by both is surfaced
        ``from_checkpoint``, and the progress lines name each source."""
        db = str(tmp_path / "r.sqlite")
        ckpt = str(tmp_path / "ckpt.jsonl")
        both, cached, new = (_spec(square, s) for s in (1, 2, 3))
        JobRunner(cache=db, checkpoint=ckpt).run([both])
        JobRunner(cache=db).run([cached])
        with ResultsStore(db) as store:
            reads = []
            batched = store.get_job_results

            def get_job_results(spec_hashes):
                reads.append(list(spec_hashes))
                return batched(spec_hashes)

            store.get_job_results = get_job_results
            counters, lines = JobCounters(), []
            outcomes = JobRunner(cache=store, checkpoint=ckpt,
                                 counters=counters, progress=lines.append
                                 ).run([both, cached, new, cached, both])
        assert reads == [[cached.spec_hash, new.spec_hash]]
        assert outcomes[both.spec_hash].from_checkpoint
        assert not outcomes[both.spec_hash].from_cache
        assert outcomes[cached.spec_hash].from_cache
        assert not outcomes[new.spec_hash].from_cache
        assert [o.result for o in outcomes.values()] == \
            [{"value": 1.0}, {"value": 4.0}, {"value": 9.0}]
        assert (counters.submitted, counters.skipped, counters.cache_hits,
                counters.executed) == (3, 1, 1, 1)
        assert [line.split()[0] for line in lines] == ["skip", "skip",
                                                       "done"]
        assert lines[0].endswith("(checkpointed)")
        assert lines[1].endswith("(cached)")

    def test_open_store_accepted_directly(self, tmp_path):
        with ResultsStore(str(tmp_path / "r.sqlite")) as store:
            JobRunner(cache=store).run([_spec(square, 9)])
            counters = JobCounters()
            JobRunner(cache=store, counters=counters).run(
                [_spec(square, 9)])
            assert counters.cache_hits == 1

    def test_parallel_cold_run_populates_cache(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        specs = [_spec(square, s) for s in (1, 2, 3, 4)]
        JobRunner(cache=db, workers=2).run(specs)
        warm = JobCounters()
        JobRunner(cache=db, counters=warm).run(specs)
        assert warm.cache_hits == 4 and warm.executed == 0


class TestTwoWritersOneStore:
    def test_concurrent_arena_runs_share_the_cache(self, tmp_path):
        """Two parents, each a ``run_arena(cache=db)``, write one store
        at the same time: both finish, no ``database is locked``
        escapes, and every spec hash has exactly one row."""
        db = str(tmp_path / "r.sqlite")
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(len(WRITER_GRIDS))
        results = ctx.Queue()
        writers = [ctx.Process(target=_arena_writer,
                               args=(db, lbs, start, results))
                   for lbs in WRITER_GRIDS]
        for writer in writers:
            writer.start()
        outcomes = [results.get(timeout=120) for _ in writers]
        for writer in writers:
            writer.join(timeout=30)
        assert outcomes == [("ok", 6)] * len(WRITER_GRIDS)
        assert [writer.exitcode for writer in writers] == [0] * len(writers)
        hashes = {spec.spec_hash for lbs in WRITER_GRIDS
                  for spec in arena.arena_job_specs(**_grid_kwargs(lbs))}
        with ResultsStore(db) as store:
            rows = store.conn.execute(
                "SELECT spec_hash, COUNT(*) FROM job_results "
                "GROUP BY spec_hash").fetchall()
        assert {tuple(row) for row in rows} == {(h, 1) for h in hashes}


class TestArenaWarmRun:
    def test_cold_and_warm_docs_byte_identical(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        kwargs = dict(
            lbs=("ecmp",), transports=("nic_sr", "ideal"),
            ccs=("dcqcn",), workloads=("alltoall",),
            topologies={
                "leaf_spine": arena.QUICK_TOPOLOGIES["leaf_spine"]},
            seeds=(1,), quick=True)
        cold = JobCounters()
        doc1 = arena.run_arena(cache=db, counters=cold, **kwargs)
        warm = JobCounters()
        doc2 = arena.run_arena(cache=db, counters=warm, **kwargs)
        assert json.dumps(doc1, indent=2) == json.dumps(doc2, indent=2)
        assert cold.executed == 2 and cold.cache_hits == 0
        assert warm.executed == 0 and warm.cache_hits == 2


class TestFaultCampaignWarmRun:
    def test_cold_and_warm_docs_byte_identical(self, tmp_path):
        db = str(tmp_path / "r.sqlite")
        spec = builtin("link-flap-smoke").compile()
        cold, warm = JobCounters(), JobCounters()
        d1 = run_campaign(spec, [1], cache=db, counters=cold)
        d2 = run_campaign(spec, [1], cache=db, counters=warm)
        assert json.dumps(d1, indent=2) == json.dumps(d2, indent=2)
        assert cold.completed == 1 and warm.completed == 0
        assert warm.cache_hits == 1
