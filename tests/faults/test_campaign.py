"""Campaign cells, resilience metrics, and determinism goldens."""

import json

from repro.faults.campaign import (campaign_specs, run_campaign, run_cell,
                                   validate_faults_doc)
from repro.faults.spec import LinkFlap, Scenario
from repro.harness.metrics import JobCounters
from repro.results import ResultsStore

#: Fast mid-flight flap: the default 8-node/20kB workload finishes in
#: ~17us of simulated time, so the fault must land inside that.
FAST_FLAP = (Scenario("fast-flap")
             .add(LinkFlap(link="tor0:spine0", at_us=5, down_us=10))
             .compile())

EMPTY = Scenario("empty").compile()


def campaign_of(tmp_path, result: object, seed: int = 1) -> dict:
    """The one-seed ``FAST_FLAP`` campaign whose cell returned
    ``result``, served from a run cache so no job executes."""
    db = str(tmp_path / "cache.sqlite")
    with ResultsStore(db) as store:
        store.put_job_result(campaign_specs(FAST_FLAP, [seed])[0], result)
    return run_campaign(FAST_FLAP, [seed], cache=db)


class TestRunCell:
    def test_result_validates_and_faults_bite(self, tmp_path):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        campaign = campaign_of(tmp_path, doc)
        assert campaign["cells"] == [doc]
        assert validate_faults_doc(campaign) == []
        assert campaign["validation_problems"] == []
        assert doc["completed"]
        assert doc["faults"]["applied"] == 2
        assert doc["faults"]["fault_events_recorded"] >= 2
        assert doc["drops"] > doc["baseline_drops"]
        assert doc["nacks"]["unexplained"] == 0

    def test_tail_stretch_compares_against_baseline(self):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        assert doc["baseline_completion_ns"] is not None
        assert doc["completion_ns"] >= doc["baseline_completion_ns"]
        assert doc["tail_stretch"] >= 1.0

    def test_result_is_json_serialisable(self):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        assert json.loads(json.dumps(doc)) == doc


class TestDeterminism:
    def test_same_seed_same_spec_is_bitwise_identical(self):
        a = run_cell({"spec": FAST_FLAP}, seed=7)
        b = run_cell({"spec": FAST_FLAP}, seed=7)
        assert a == b

    def test_empty_spec_matches_no_faults_engine(self):
        """Installing an empty schedule must not perturb the simulation:
        the fault RNG substream is forked, never drawn from."""
        from repro.harness.tracing import build_traced_alltoall

        def counters(faults):
            net, _ = build_traced_alltoall(nodes=8, loss=0.01, seed=11,
                                           message_bytes=20_000,
                                           faults=faults)
            net.run(until_ns=5_000_000)
            return (net.traffic.done_ns, net.metrics.data_packets_sent,
                    net.metrics.retransmissions, net.metrics.drops,
                    net.metrics.nacks_generated)

        assert counters(None) == counters(EMPTY)

    def test_different_seeds_differ(self):
        a = run_cell({"spec": FAST_FLAP}, seed=1)
        b = run_cell({"spec": FAST_FLAP}, seed=2)
        assert a != b


class TestValidateResult:
    """One per-cell check: its outcome problems fill a campaign's
    ``validation_problems`` and leave the document well-formed."""

    def test_rejects_partial_application(self, tmp_path):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        doc["faults"]["applied"] -= 1
        campaign = campaign_of(tmp_path, doc)
        assert campaign["validation_problems"] \
            == ["seed 1: only 1 of 2 fault events applied"]
        assert validate_faults_doc(campaign) == []

    def test_rejects_unexplained_nacks(self, tmp_path):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        doc["nacks"]["unexplained"] = 3
        campaign = campaign_of(tmp_path, doc)
        assert any("3 unexplained NACK" in p
                   for p in campaign["validation_problems"])
        assert campaign["aggregate"]["unexplained_nacks"] == 3
        assert validate_faults_doc(campaign) == []

    def test_rejects_missing_keys(self):
        doc = {"schema": "repro-faults-v1", "scenario": "s",
               "duration_us": 1.0, "seeds": [1, 2],
               "cells": [{"version": 1}, "nope"], "failures": [],
               "validation_problems": []}
        problems = validate_faults_doc(doc)
        assert any(p.startswith("cell[0] missing fields: ['scenario'")
                   for p in problems)
        assert "cell[1] is not an object" in problems

    def test_malformed_cell_result_is_a_failure(self, tmp_path):
        """A cached result of another shape (a stale or corrupted run
        cache row) fails its seed; the campaign still returns."""
        campaign = campaign_of(tmp_path, {"version": 1})
        assert campaign["cells"] == []
        assert [f["seed"] for f in campaign["failures"]] == [1]
        assert campaign["failures"][0]["error"].startswith(
            "cell missing fields: ['scenario'")
        assert campaign["validation_problems"] == []
        assert "aggregate" not in campaign
        assert validate_faults_doc(campaign) == []


class TestCampaign:
    def test_specs_are_stable_per_seed(self):
        specs = campaign_specs(FAST_FLAP, [1, 2])
        assert [s.seed for s in specs] == [1, 2]
        assert specs[0].kind == "fault_cell"
        assert specs[0].label == "fast-flap@s1"
        again = campaign_specs(FAST_FLAP, [1, 2])
        assert [s.spec_hash for s in specs] \
            == [s.spec_hash for s in again]

    def test_serial_campaign_aggregates(self):
        doc = run_campaign(FAST_FLAP, [1, 2], workers=1)
        assert validate_faults_doc(doc) == []
        assert doc["scenario"] == "fast-flap"
        assert doc["failures"] == []
        assert doc["validation_problems"] == []
        assert len(doc["cells"]) == 2
        agg = doc["aggregate"]
        assert agg["completed"] == 2
        assert agg["unexplained_nacks"] == 0

    def test_parallel_equals_serial(self):
        serial = run_campaign(FAST_FLAP, [1, 2], workers=1)
        parallel = run_campaign(FAST_FLAP, [1, 2], workers=2)
        assert serial == parallel

    def test_campaign_resumes_from_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "campaign.jsonl")
        counters = JobCounters()
        first = run_campaign(FAST_FLAP, [1], checkpoint=ckpt)
        second = run_campaign(FAST_FLAP, [1], checkpoint=ckpt,
                              counters=counters)
        assert first == second
        assert (counters.skipped, counters.executed) == (1, 0)


class TestJobKind:
    def test_fault_cell_registered(self):
        from repro.harness.jobs import JOB_KINDS
        assert "fault_cell" in JOB_KINDS

    def test_fault_cell_runs_in_subprocess(self, tmp_path):
        from repro.harness.jobs import JobRunner
        spec = campaign_specs(FAST_FLAP, [5])[0]
        outcome = JobRunner(workers=1, isolation="subprocess") \
            .run([spec])[spec.spec_hash]
        assert outcome.ok
        campaign = campaign_of(tmp_path, outcome.result, seed=5)
        assert campaign["cells"] == [outcome.result]
        assert validate_faults_doc(campaign) == []
        assert campaign["validation_problems"] == []
        inproc = run_cell({"spec": FAST_FLAP}, seed=5)
        assert outcome.result == inproc
