"""Crash-path coverage: every advertised dump trigger must produce a
parseable flight-recorder JSONL file.

Three triggers are wired in (see docs/observability.md): a simulation
exception inside :meth:`Network.run`, an invariant failure via
:func:`check_invariant` (covered in test_recorder.py), and a job-worker
crash in :mod:`repro.harness.jobs` — both isolation modes.
"""

import json
from pathlib import Path

import pytest

from repro.harness.jobs import JobRunner, JobSpec
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.obs.record import Recorder, set_active

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                    nics_per_tor=1, link_bandwidth_bps=25e9)


def read_dump(path):
    lines = [json.loads(ln) for ln in Path(path).read_text().splitlines()]
    assert lines[0]["meta"] == "repro-flight-recorder"
    return lines[0], lines[1:]


class TestSimExceptionDump:
    def test_mid_sim_exception_dumps_flight_ring(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        rec = Recorder()
        net = Network(NetworkConfig(topology=TOPO, scheme="rps", seed=3),
                      recorder=rec)
        net.post_message(0, 1, 40_000)

        def boom():
            raise RuntimeError("injected mid-sim failure")

        # Fire after traffic has produced events, before completion.
        net.sim.schedule(20_000, boom)
        with pytest.raises(RuntimeError, match="injected mid-sim"):
            net.run(until_ns=10_000_000_000)
        set_active(None)
        assert rec.dumps, "sim exception did not dump the flight ring"
        header, events = read_dump(rec.dumps[-1])
        assert header["reason"] == "sim-exception"
        assert events, "dump carried no events"
        assert {"t", "cat", "ev", "loc"} <= set(events[0])

    def test_untraced_run_exception_propagates_cleanly(self):
        net = Network(NetworkConfig(topology=TOPO, scheme="rps", seed=3))

        def boom():
            raise RuntimeError("no recorder attached")

        net.sim.schedule(1000, boom)
        with pytest.raises(RuntimeError, match="no recorder"):
            net.run(until_ns=1_000_000)


def _plain_boom(seed):
    raise RuntimeError(f"worker exploded (seed={seed})")


def _traced_boom(seed):
    """Simulates a traced experiment dying mid-run in a worker."""
    rec = Recorder()
    set_active(rec)
    for i in range(5):
        rec.queue_enq(i, "tor0:p0", i, i)
    raise RuntimeError("traced worker exploded")


#: Keeps a finished job's recorder alive, as the reference cycles of a
#: real ``Network`` do until the next GC pass.
_finished_runs = []


def _traced_ok(seed):
    """A traced experiment that finishes; its recorder stays registered."""
    rec = Recorder()
    set_active(rec)
    rec.queue_enq(seed, "tor0:p0", 0, 0)
    _finished_runs.append(rec)
    return seed


def _callable_spec(name):
    return JobSpec(kind="callable", seed=0,
                   params={"target": f"tests.obs.test_crash_dump:{name}"})


class TestJobWorkerCrashDump:
    def test_inproc_failure_appends_dump_path(self, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        try:
            runner = JobRunner(workers=1, isolation="inproc", retries=0)
            spec = _callable_spec("_traced_boom")
            outcome = runner.run([spec])[spec.spec_hash]
        finally:
            set_active(None)
        assert outcome.status == "failed"
        assert "traced worker exploded" in outcome.error
        assert "[flight recorder: " in outcome.error
        dump_path = outcome.error.rsplit("[flight recorder: ", 1)[1][:-1]
        header, events = read_dump(dump_path)
        assert header["reason"] == "job-failure"
        assert len(events) == 5

    @pytest.mark.parametrize("isolation", ["inproc", "subprocess"])
    def test_failure_never_dumps_an_earlier_jobs_recorder(
            self, tmp_path, monkeypatch, isolation):
        """A traced job that succeeded leaves its recorder registered;
        the next job — same process, or a ``fork`` of it — fails before
        wiring one and must not be handed the first job's events."""
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        try:
            ok = _callable_spec("_traced_ok")
            boom = _callable_spec("_plain_boom")
            first = JobRunner(isolation="inproc").run([ok])[ok.spec_hash]
            assert first.ok
            outcome = JobRunner(isolation=isolation, retries=0).run(
                [boom])[boom.spec_hash]
        finally:
            set_active(None)
            _finished_runs.clear()
        assert outcome.status == "failed"
        assert "worker exploded" in outcome.error
        assert "[flight recorder: " not in outcome.error
        assert list(tmp_path.iterdir()) == []

    def test_subprocess_crash_appends_dump_path(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        runner = JobRunner(workers=1, isolation="subprocess", retries=0,
                           mp_method="spawn")
        spec = _callable_spec("_traced_boom")
        outcome = runner.run([spec])[spec.spec_hash]
        assert outcome.status == "failed"
        assert "traced worker exploded" in outcome.error
        assert "[flight recorder: " in outcome.error
        dump_path = outcome.error.rsplit("[flight recorder: ", 1)[1][:-1]
        header, events = read_dump(dump_path)
        assert header["reason"] == "job-crash"
        assert len(events) == 5


class TestDumpCollisionSafety:
    """Concurrent (or same-millisecond) failures must never race to the
    same dump file: pid + monotonic sequence + caller tag disambiguate."""

    def test_rapid_dumps_get_distinct_paths(self, tmp_path, monkeypatch):
        from repro.obs.record import dump_active_flight

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        rec = Recorder()
        rec.queue_enq(1, "a", 0, 0)
        set_active(rec)
        try:
            paths = [dump_active_flight("collide") for _ in range(5)]
        finally:
            set_active(None)
        assert all(p is not None for p in paths)
        assert len({str(p) for p in paths}) == 5

    def test_tag_is_woven_into_filename(self, tmp_path, monkeypatch):
        from repro.obs.record import dump_active_flight

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        rec = Recorder()
        rec.queue_enq(1, "a", 0, 0)
        set_active(rec)
        try:
            path = dump_active_flight("job-crash", tag="cafe0123")
        finally:
            set_active(None)
        assert "cafe0123" in path.name

    def test_parallel_worker_crashes_write_distinct_dumps(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        runner = JobRunner(workers=3, isolation="subprocess", retries=0,
                           mp_method="spawn")
        specs = [JobSpec(
            kind="callable", seed=s,
            params={"target": "tests.obs.test_crash_dump:_traced_boom"})
            for s in range(3)]
        outcomes = runner.run(specs)
        dumps = []
        for outcome in outcomes.values():
            assert outcome.status == "failed"
            assert "[flight recorder: " in outcome.error
            dumps.append(
                outcome.error.rsplit("[flight recorder: ", 1)[1][:-1])
        assert len(set(dumps)) == 3
        for dump, spec in zip(dumps, specs):
            header, _ = read_dump(dump)
            assert header["reason"] == "job-crash"
        # Each dump is tagged with its job's spec-hash.
        hashes = {spec.spec_hash for spec in specs}
        for dump in dumps:
            assert any(h in dump for h in hashes)
