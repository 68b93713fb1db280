"""Baseline — RNIC generations under packet spraying (§1).

The paper's framing: previous-generation RNICs (CX-4/5) use Go-Back-N
and *drop* out-of-order packets, so spraying collapses them; the current
generation (CX-6/7, NIC-SR) at least accepts OOO data but still NACKs
blindly; the Ideal transport shows the ceiling.  This bench quantifies
all three on the Fig. 1 workload.
"""

import pytest

from repro.harness.motivation import build_motivation, motivation_config
from repro.harness.report import format_table, percent
from repro.harness.workload import run_built

FLOW_BYTES = 1_000_000
TRANSPORTS = ("gbn", "nic_sr", "ideal")


def _run(transport, seed=6):
    net = build_motivation(motivation_config(transport=transport, seed=seed),
                           flow_bytes=FLOW_BYTES)
    run_built(net, 120_000_000_000)
    metrics = net.metrics
    return {
        "done": net.traffic.complete,
        "tail_us": (net.traffic.done_ns / 1000 if net.traffic.complete
                    else None),
        "retx": metrics.spurious_ratio,
        # A GBN receiver drops every out-of-order arrival; the others
        # keep them all.
        "ooo_dropped": (sum(f.receiver_ooo for f in metrics.flows.values())
                        if transport == "gbn" else 0),
        "goodput": metrics.mean_goodput_gbps(),
    }


@pytest.mark.figure("generations")
def test_rnic_generations_under_spraying(benchmark):
    results = benchmark.pedantic(
        lambda: {t: _run(t) for t in TRANSPORTS}, rounds=1, iterations=1)

    print("\n=== RNIC generations x random packet spraying ===")
    print(format_table(
        ["transport", "tail us", "retx ratio", "receiver-dropped OOO",
         "goodput Gbps"],
        [[t, f"{r['tail_us']:.0f}" if r["tail_us"] else "DNF",
          percent(r["retx"]), r["ooo_dropped"], f"{r['goodput']:.1f}"]
         for t, r in results.items()]))

    gbn, nic_sr, ideal = (results[t] for t in TRANSPORTS)
    assert all(r["done"] for r in results.values())
    # GBN throws away every OOO arrival; NIC-SR keeps them.
    assert gbn["ooo_dropped"] > 0
    assert nic_sr["ooo_dropped"] == 0
    # Strict ordering of the generations, as §1 describes.
    assert gbn["retx"] > nic_sr["retx"] > ideal["retx"] == 0.0
    assert ideal["goodput"] > nic_sr["goodput"] > gbn["goodput"]
