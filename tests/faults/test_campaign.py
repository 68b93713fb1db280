"""Campaign cells, resilience metrics, and determinism goldens."""

import json

from repro.faults.campaign import (campaign_specs, run_campaign, run_cell,
                                   validate_result)
from repro.faults.spec import LinkFlap, Scenario

#: Fast mid-flight flap: the default 8-node/20kB workload finishes in
#: ~17us of simulated time, so the fault must land inside that.
FAST_FLAP = (Scenario("fast-flap")
             .add(LinkFlap(link="tor0:spine0", at_us=5, down_us=10))
             .compile())

EMPTY = Scenario("empty").compile()


class TestRunCell:
    def test_result_validates_and_faults_bite(self):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        assert validate_result(doc) == []
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
    def test_rejects_partial_application(self):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        doc["faults"]["applied"] -= 1
        assert any("fault events applied" in p
                   for p in validate_result(doc))

    def test_rejects_unexplained_nacks(self):
        doc = run_cell({"spec": FAST_FLAP}, seed=1)
        doc["nacks"]["unexplained"] = 3
        assert any("unexplained" in p for p in validate_result(doc))

    def test_rejects_missing_keys(self):
        assert validate_result({"version": 1}) != []
        assert validate_result("nope") == ["result is not a dict"]


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
        summary = run_campaign(FAST_FLAP, [1, 2], workers=1)
        assert summary["scenario"] == "fast-flap"
        assert summary["failures"] == []
        assert summary["validation_problems"] == []
        assert len(summary["cells"]) == 2
        agg = summary["aggregate"]
        assert agg["completed"] == 2
        assert agg["unexplained_nacks"] == 0

    def test_parallel_equals_serial(self):
        serial = run_campaign(FAST_FLAP, [1, 2], workers=1)
        parallel = run_campaign(FAST_FLAP, [1, 2], workers=2)
        assert serial["cells"] == parallel["cells"]
        assert serial["aggregate"] == parallel["aggregate"]

    def test_campaign_resumes_from_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "campaign.jsonl")
        first = run_campaign(FAST_FLAP, [1], checkpoint=ckpt)
        second = run_campaign(FAST_FLAP, [1], checkpoint=ckpt)
        assert first["cells"] == second["cells"]
        assert second["jobs"]["jobs_skipped_from_checkpoint"] == 1


class TestJobKind:
    def test_fault_cell_registered(self):
        from repro.harness.jobs import JOB_KINDS
        assert "fault_cell" in JOB_KINDS

    def test_fault_cell_runs_in_subprocess(self):
        from repro.harness.jobs import JobRunner
        spec = campaign_specs(FAST_FLAP, [5])[0]
        outcome = JobRunner(workers=1, isolation="subprocess") \
            .run([spec])[spec.spec_hash]
        assert outcome.ok
        assert validate_result(outcome.result) == []
        inproc = run_cell({"spec": FAST_FLAP}, seed=5)
        assert outcome.result == inproc
