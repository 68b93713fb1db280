"""Smoke tests of the ledger itself (not part of tier-1):

    python -m pytest benchmarks/ledger -q

They measure nothing — ``--smoke`` shrinks every message 100x — but pin
the contract: the names in ``BENCHMARK.json`` and the names emitted are
the same set, every output check passes, the layer map still covers every
event handler, and the driver-mode JSON line has the agreed shape.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SIM_WORKLOADS = ("spray_alltoall", "themis_allreduce", "ar_allreduce",
                 "themis_lossy")


def _run(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    start = time.perf_counter()
    proc = _run("--smoke", "--out", str(out))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        doc = json.load(fh)
    doc["elapsed_s"] = elapsed
    return doc


def test_spec_is_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in spec[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_smoke_suite_is_quick_and_every_check_passes(smoke_doc):
    assert smoke_doc["elapsed_s"] < 30
    for name, entry in smoke_doc["workloads"].items():
        assert entry["failed"] == 0, (name, entry["problems"])
        assert entry["attempted"] >= 1


def test_names_emitted_are_exactly_the_names_declared(spec, smoke_doc):
    assert list(smoke_doc["workloads"]) == [w["name"]
                                            for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, entry in smoke_doc["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == per_layer, name
    # Every host-time metric is measured on at least one workload.
    for metric in spec["per_layer"]:
        if metric["unit"] in ("ns", "us", "ms", "1/s"):
            assert any(entry["per_layer"][metric["name"]]
                       for entry in smoke_doc["workloads"].values()), metric


def test_layer_map_covers_every_handler(smoke_doc):
    """A handler renamed under src/ falls to ``other``: fail loudly."""
    for name in SIM_WORKLOADS:
        layers = smoke_doc["workloads"][name]["per_layer"]
        shares = [v for k, v in layers.items()
                  if k.endswith(".share") and k != "sim.share"]
        assert abs(sum(shares) - 1.0) < 0.01, name
        assert layers["other.share"] < 0.02, name


def test_driver_mode_prints_the_agreed_json_line(spec):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "themis_lossy", "--seed", "3",
                    "--seconds", "1", "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in spec[section]}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


def test_compare_agrees_with_itself(smoke_doc, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(smoke_doc))
    proc = _run("compare", str(path), str(path))
    assert proc.returncode == 0, proc.stderr
    assert "regressed=0 unresolved=0 count-differs=0" in proc.stdout


def test_refuses_to_run_without_the_repository(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: exit non-zero, print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bare = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns(
        "__pycache__", ".pytest_cache"))
    proc = _run("--workload", "spray_alltoall", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path,
                run=str(bare / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
