"""Smoke tests for the perf-benchmark harness (fast; CI runs them as
their own step — tier-1's ``testpaths`` is ``tests`` alone).

These do not measure anything meaningful — they pin the harness
machinery: scenario builders construct, quick runs complete, and the JSON
document keeps the schema downstream tooling reads.  (Event-order equality
with the reference heap engine is ``tests/sim/test_batched_golden.py``.)
"""

import json

import pytest

from repro.harness import bench
from repro.harness.bench import (SCENARIOS, ScenarioResult, run_bench,
                                 run_scenario)


@pytest.mark.parametrize("name", SCENARIOS)
def test_each_scenario_completes_in_quick_mode(name):
    result = run_scenario(name, quick=True)
    assert isinstance(result, ScenarioResult)
    assert result.completed, f"{name} did not finish before the deadline"
    assert result.events > 0 and result.events_per_sec > 0
    assert 0 < result.sim_time_ns


def test_run_bench_writes_schema(tmp_path, monkeypatch):
    built = []
    for name, builder in list(bench.BUILDERS.items()):
        def counting(*args, _name=name, _builder=builder):
            built.append(_name)
            return _builder(*args)
        monkeypatch.setitem(bench.BUILDERS, name, counting)
    out = tmp_path / "bench.json"
    doc = run_bench(quick=True, out=str(out),
                    echo=lambda line: None)
    # One warm-up, one measurement per scenario, one traced run.
    assert built == ["incast", *SCENARIOS, "alltoall"]
    on_disk = json.loads(out.read_text())
    assert on_disk == doc
    assert doc["schema_version"] == 5
    assert "heap_baseline" not in doc and "speedup_vs_heap" not in doc
    assert "cost_model" not in doc
    assert set(doc["scenarios"]) == set(SCENARIOS)
    for name in SCENARIOS:
        entry = doc["scenarios"][name]
        assert entry["scenario"] == name
        assert entry["engine"] == "calendar"
        assert entry["completed"] is True
    assert doc["engine"]["kind"] == "calendar"
    assert doc["measurement"]["estimator"] == "min wall time"


def test_quick_is_marked_in_document(tmp_path):
    doc = run_bench(quick=True, out=None, echo=lambda line: None)
    assert doc["quick"] is True
    assert "--quick" in doc["generated_by"]
