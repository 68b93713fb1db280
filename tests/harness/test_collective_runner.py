"""Unit tests for the Fig. 5 collective runner and sweep machinery."""

from dataclasses import replace

import pytest

from repro.harness.collective_runner import (EvalScale, fig5_config,
                                             run_collective)
from repro.harness.sweep import (DCQCN_SWEEP, SweepResult, run_fig5_sweep,
                                 sweep_job_specs)
from repro.results.store import ResultsStore

TINY = EvalScale(num_tors=2, num_spines=2, nics_per_tor=2,
                 collective_bytes=100_000, link_bandwidth_bps=25e9)


class TestFig5Config:
    def test_timers_applied(self):
        cfg = fig5_config("themis", 300, 50, scale=TINY)
        assert cfg.dcqcn.ti_ns == 300_000
        assert cfg.dcqcn.td_ns == 50_000
        assert cfg.scheme == "themis"

    def test_scale_shapes_topology(self):
        cfg = fig5_config("ecmp", 900, 4, scale=TINY)
        assert cfg.topology.num_tors == 2
        assert cfg.topology.link_bandwidth_bps == 25e9
        assert cfg.buffer_bytes == TINY.buffer_bytes

    def test_env_scale_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_SCALE", "paper")
        scale = EvalScale.from_env()
        assert scale.num_tors == 16
        assert scale.collective_bytes == 300_000_000
        assert scale.link_bandwidth_bps == 400e9

    def test_env_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_SCALE", raising=False)
        assert EvalScale.from_env() == EvalScale()


class TestRunCollective:
    def test_unknown_collective_rejected(self):
        cfg = fig5_config("ecmp", 10, 200, scale=TINY)
        with pytest.raises(ValueError):
            run_collective(cfg, "bogus", scale=TINY)

    def test_result_fields(self):
        cfg = fig5_config("themis", 10, 200, scale=TINY)
        result = run_collective(cfg, "allgather", scale=TINY)
        assert result.completed
        assert result.collective == "allgather"
        assert result.scheme == "themis"
        assert result.tail_completion_ns > 0
        assert result.tail_completion_ms \
            == result.tail_completion_ns / 1e6
        assert len(result.group_completion_ns) == TINY.nics_per_tor
        assert result.summary["data_packets_sent"] > 0

    def test_tail_is_max_of_groups(self):
        cfg = fig5_config("ecmp", 10, 200, scale=TINY)
        result = run_collective(cfg, "allreduce", scale=TINY)
        assert result.tail_completion_ns \
            == max(result.group_completion_ns)

    def test_bytes_override(self):
        cfg = fig5_config("ecmp", 10, 200, scale=TINY)
        result = run_collective(
            cfg, "allreduce", scale=replace(TINY, collective_bytes=40_000))
        assert result.bytes_per_group == 40_000


class TestSweep:
    def test_sweep_structure_and_math(self):
        result = run_fig5_sweep(
            "allgather", schemes=("ecmp", "themis"),
            conditions=((10, 200),), scale=TINY)
        assert isinstance(result, SweepResult)
        assert set(result.runs) == {(10, 200)}
        assert set(result.runs[(10, 200)]) == {"ecmp", "themis"}
        imp = result.improvement_over("ecmp", "themis", (10, 200))
        ecmp_ms = result.tail_ms((10, 200), "ecmp")
        themis_ms = result.tail_ms((10, 200), "themis")
        assert imp == pytest.approx(1 - themis_ms / ecmp_ms)

    def test_improvement_range(self):
        result = run_fig5_sweep(
            "allgather", schemes=("ecmp", "themis"),
            conditions=((10, 200), (10, 50)), scale=TINY)
        lo, hi = result.improvement_range("ecmp", "themis")
        assert lo <= hi

    def test_stale_cached_result_names_the_cell(self, tmp_path):
        """A cached result of another shape is one error naming the
        cell, not a bare TypeError from the result class."""
        one = dict(schemes=("themis",), conditions=((10, 200),),
                   scale=TINY)
        spec = sweep_job_specs("allgather", **one)[0]
        db = str(tmp_path / "cache.sqlite")
        with ResultsStore(db) as store:
            store.put_job_result(spec, {"version": 1})
        with pytest.raises(ValueError) as exc:
            run_fig5_sweep("allgather", cache=db, **one)
        assert spec.describe() in str(exc.value)
        assert "version" in str(exc.value)

    def test_default_sweep_constants(self):
        assert DCQCN_SWEEP == ((900, 4), (300, 4), (10, 4), (10, 50),
                               (10, 200))
