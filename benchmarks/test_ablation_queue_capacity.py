"""Ablation — ring PSN queue sizing (the §4 expansion factor F).

An undersized queue evicts in-flight PSNs before their NACK returns, so
tPSN identification fails and Themis-D must conservatively forward those
NACKs — degrading toward plain spraying.  This sweep shows the knee:
once capacity covers the last-hop BDP (plus queueing slack), misses stop.
"""

import pytest

from collections import OrderedDict
from repro.harness.motivation import build_motivation, motivation_config
from repro.harness.report import format_table, percent
from repro.harness.workload import run_built
from repro.themis.config import ThemisConfig

FLOW_BYTES = 2_000_000
CAPACITIES = (4, 8, 16, 32, 64, 256)


def _run(capacity):
    cfg = motivation_config(
        scheme="themis",
        themis=ThemisConfig(queue_entries_override=capacity))
    net = build_motivation(cfg, flow_bytes=FLOW_BYTES)
    run_built(net, 30_000_000_000)
    metrics = net.metrics
    inspected = metrics.themis.nacks_inspected
    return {
        "capacity": capacity,
        "miss_ratio": (metrics.themis.tpsn_not_found / inspected
                       if inspected else 0.0),
        "overflows": metrics.themis.queue_overflows,
        "blocked_frac": metrics.themis.block_ratio,
        "retx_ratio": metrics.spurious_ratio,
        "goodput": metrics.mean_goodput_gbps(),
        "done": net.traffic.complete,
    }


@pytest.mark.figure("ablation-queue")
def test_queue_capacity_sweep(benchmark):
    results = benchmark.pedantic(
        lambda: OrderedDict((c, _run(c)) for c in CAPACITIES),
        rounds=1, iterations=1)

    print("\n=== Ring PSN queue capacity sweep ===")
    print(format_table(
        ["capacity", "tPSN miss", "overflows", "blocked", "retx",
         "goodput"],
        [[c, percent(r["miss_ratio"]), r["overflows"],
          percent(r["blocked_frac"]), percent(r["retx_ratio"]),
          f"{r['goodput']:.1f}"] for c, r in results.items()]))

    assert all(r["done"] for r in results.values())
    tiny = results[CAPACITIES[0]]
    big = results[CAPACITIES[-1]]
    # Tiny queues overflow and lose tPSN context.
    assert tiny["overflows"] > 0
    # Adequate capacity identifies (nearly) every trigger.
    assert big["miss_ratio"] < 0.02
    assert big["miss_ratio"] <= tiny["miss_ratio"]
    # More identified triggers -> more invalid NACKs blocked.
    assert big["blocked_frac"] >= tiny["blocked_frac"]
