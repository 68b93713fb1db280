"""Tests for the LB arena (repro.harness.arena)."""

import json

import pytest

from repro.harness import arena
from repro.harness.arena import (ARENA_SCHEMA, arena_job_specs,
                                 build_arena_doc, render_arena_table,
                                 run_arena, run_arena_cell,
                                 validate_arena_doc)
from repro.harness.jobs import JobSpec, execute_spec
from repro.harness.network import TRANSPORTS
from repro.results.store import ResultsStore

SMALL = dict(lbs=("reps", "prime"), transports=("nic_sr",),
             ccs=("dcqcn",), workloads=("alltoall",),
             topologies={"leaf_spine":
                         arena.QUICK_TOPOLOGIES["leaf_spine"]},
             seeds=(1,), quick=True)


def small_params(**over):
    params = {"lb": "reps", "transport": "nic_sr", "cc": "dcqcn",
              "workload": "alltoall", "topology": "leaf_spine",
              "topo": dict(arena.QUICK_TOPOLOGIES["leaf_spine"]),
              "bytes": 20_000, "deadline_us": 20_000.0}
    params.update(over)
    return params


class TestArenaCell:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_cell_completes_and_reports_metrics(self, transport):
        result = run_arena_cell(small_params(transport=transport), seed=1)
        assert result["completed"]
        assert result["tail_ns"] > 0
        assert result["mean_slowdown"] >= 1.0
        assert result["goodput_gbps"] > 0
        assert 0.0 <= result["reorder_rate"] <= 1.0
        assert 0.0 <= result["nack_validity"] <= 1.0

    def test_all_workloads_run(self):
        for workload in arena.WORKLOADS:
            result = run_arena_cell(small_params(workload=workload),
                                    seed=1)
            assert result["completed"], workload

    @pytest.mark.parametrize("workload", arena.WORKLOADS)
    def test_cell_stops_at_completion_with_the_same_metrics(
            self, workload, monkeypatch):
        """Once every posted message is delivered and acknowledged the
        cell stops; running on to the deadline (idle DCQCN timers, stray
        control packets) must not move a single reported number.  A stopped
        cell's pending timers still run, as no-ops, so stopping never runs
        more events than running on (on the alltoall cell both run 2 949)."""
        from repro.harness.network import Network
        executed = []
        real_run = Network.run

        def counting_run(net, until_ns=None):
            executed.append(real_run(net, until_ns))
            return executed[-1]

        monkeypatch.setattr(Network, "run", counting_run)
        params = small_params(workload=workload, bytes=40_000)
        stopped = run_arena_cell(params, seed=1)
        monkeypatch.setattr(Network, "stop", lambda net: None)
        to_deadline = run_arena_cell(params, seed=1)
        assert stopped == to_deadline and stopped["completed"]
        assert executed[0] <= executed[1]

    def test_unknown_axes_rejected(self):
        with pytest.raises(ValueError):
            run_arena_cell(small_params(transport="quic"), seed=1)
        with pytest.raises(ValueError):
            run_arena_cell(small_params(cc="bbr"), seed=1)
        with pytest.raises(ValueError):
            run_arena_cell(small_params(workload="gossip"), seed=1)

    def test_registered_as_job_kind(self):
        spec = JobSpec(kind="arena_cell", seed=1, params=small_params())
        payload = execute_spec(spec)
        assert payload["completed"]


class TestArenaSpecs:
    def test_spec_order_is_deterministic(self):
        a = arena_job_specs(**SMALL)
        b = arena_job_specs(**SMALL)
        assert [s.spec_hash for s in a] == [s.spec_hash for s in b]

    def test_grid_covers_every_combination(self):
        specs = arena_job_specs(
            lbs=("ecmp", "rps"), transports=("nic_sr", "ideal"),
            ccs=("dcqcn",), workloads=("alltoall", "incast"),
            topologies=arena.QUICK_TOPOLOGIES, seeds=(1, 2), quick=True)
        assert len(specs) == 2 * 2 * 1 * 2 * 3 * 2
        assert len({s.spec_hash for s in specs}) == len(specs)

    def test_params_are_self_contained(self):
        (spec,) = arena_job_specs(
            lbs=("reps",), transports=("nic_sr",), workloads=("incast",),
            topologies={"dragonfly": arena.QUICK_TOPOLOGIES["dragonfly"]},
            quick=True)
        assert spec.params["topo"]["kind"] == "dragonfly"
        assert spec.params["bytes"] == arena.QUICK_BYTES
        assert spec.params["deadline_us"] == arena.QUICK_DEADLINE_US


class TestArenaRun:
    def test_doc_schema_and_ranking(self):
        doc = run_arena(**SMALL)
        assert validate_arena_doc(doc) == []
        assert doc["schema"] == ARENA_SCHEMA
        assert {r["lb"] for r in doc["ranking"]} == {"reps", "prime"}
        ranks = [r["rank"] for r in doc["ranking"]]
        assert ranks == [1, 2]
        slowdowns = [r["mean_slowdown"] for r in doc["ranking"]]
        assert slowdowns == sorted(slowdowns)

    def test_parallel_run_bitwise_identical_to_serial(self):
        """The ISSUE acceptance criterion, at test scale: workers=2
        (subprocess pool) must produce the identical document."""
        serial = run_arena(workers=1, **SMALL)
        parallel = run_arena(workers=2, **SMALL)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_render_table_lists_every_pair(self):
        doc = run_arena(**SMALL)
        table = render_arena_table(doc)
        assert "reps" in table and "prime" in table
        assert "slowdown" in table


def stale_cache_error(tmp_path, result):
    """What the one-cell ``SMALL`` arena raises when its run cache holds
    ``result`` for the cell: ``(the cell's label, the message)``."""
    one = dict(SMALL, lbs=("reps",))
    spec = arena_job_specs(**one)[0]
    db = str(tmp_path / "cache.sqlite")
    with ResultsStore(db) as store:
        store.put_job_result(spec, result)
    with pytest.raises(ValueError) as exc:
        run_arena(cache=db, **one)
    return spec.describe(), str(exc.value)


class TestStaleCache:
    """A cached cell result of another shape (a stale or corrupted run
    cache row) is one error naming the cell and the contract it breaks,
    not a KeyError or TypeError from the ranking."""

    def test_missing_fields_name_the_cell(self, tmp_path):
        label, message = stale_cache_error(tmp_path, {"version": 1})
        assert label in message
        assert "missing fields: ['completed'" in message

    def test_mistyped_metric_names_the_cell(self, tmp_path):
        cell = run_arena_cell(small_params(), seed=1)
        label, message = stale_cache_error(
            tmp_path, {**cell, "mean_slowdown": "x"})
        assert label in message
        assert "mean_slowdown is not a number" in message


class TestValidation:
    def doc(self):
        specs = arena_job_specs(**SMALL)
        from repro.harness.jobs import run_jobs
        return build_arena_doc(specs, run_jobs(specs))

    def test_accepts_good_doc(self):
        assert validate_arena_doc(self.doc()) == []

    def test_rejects_wrong_schema(self):
        doc = self.doc()
        doc["schema"] = "repro-arena-v0"
        assert any("schema" in p for p in validate_arena_doc(doc))

    def test_rejects_missing_cells(self):
        doc = self.doc()
        doc["cells"] = []
        assert any("cells" in p for p in validate_arena_doc(doc))

    def test_rejects_incomplete_cell(self):
        doc = self.doc()
        doc["cells"][0]["completed"] = False
        assert any("did not complete" in p
                   for p in validate_arena_doc(doc))

    def test_rejects_unsorted_ranking(self):
        doc = self.doc()
        doc["ranking"].reverse()
        problems = validate_arena_doc(doc)
        assert any("rank" in p or "sorted" in p for p in problems)

    def test_rejects_missing_cell_fields(self):
        doc = self.doc()
        del doc["cells"][0]["nack_validity"]
        assert any("missing fields" in p for p in validate_arena_doc(doc))


class TestArenaCli:
    def test_quick_arena_json(self, capsys):
        from repro.harness.cli import main
        rc = main(["--json", "arena", "--quick", "--lbs", "reps,prime",
                   "--transports", "nic_sr", "--workloads", "alltoall",
                   "--topos", "leaf_spine,dragonfly"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_arena_doc(doc) == []
        assert doc["axes"]["topologies"] == ["leaf_spine", "dragonfly"]

    def test_unknown_topology_preset_rejected(self, capsys):
        from repro.harness.cli import main
        rc = main(["--quiet", "arena", "--quick", "--topos", "moebius"])
        assert rc == 2

    def test_out_file_written(self, tmp_path, capsys):
        from repro.harness.cli import main
        out = tmp_path / "arena.json"
        rc = main(["--quiet", "arena", "--quick", "--lbs", "sprinklers",
                   "--transports", "nic_sr", "--workloads", "incast",
                   "--topos", "fat_tree", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_arena_doc(doc) == []
