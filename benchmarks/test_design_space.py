"""Extension — the §2.3 design space, measured on one workload.

Every alternative the paper discusses, side by side on the Fig. 1 ring
traffic:

* commodity NIC-SR + random spraying (the problem),
* commodity NIC-SR + flowlet LB (gaps never form: per-flow behaviour),
* ConWeave-style in-network reordering,
* MPRDMA-style transport (rich NACKs + sender filtering — needs new
  NICs),
* Themis (the paper: commodity NICs + ToR middleware),
* Ideal oracle transport (upper bound).
"""

import pytest

from repro.harness.motivation import motivation_config, run_motivation
from repro.harness.report import format_table, percent

FLOW_BYTES = 2_000_000

CONDITIONS = (
    ("commodity + spray", "rps", "nic_sr"),
    ("commodity + flowlet", "flowlet", "nic_sr"),
    ("conweave reorder", "conweave_spray", "nic_sr"),
    ("mp_rdma + spray", "themis_noval", "mp_rdma"),
    ("themis", "themis", "nic_sr"),
    ("ideal + spray", "rps", "ideal"),
)


def _run(scheme, transport, seed=4):
    result = run_motivation(
        motivation_config(scheme=scheme, transport=transport, seed=seed),
        flow_bytes=FLOW_BYTES, deadline_ns=120_000_000_000)
    return {
        "done": result.completed,
        "tail_us": result.duration_ns / 1000,
        "retx": result.avg_retx_ratio,
        "goodput": result.mean_goodput_gbps,
        "needs_new_nic": transport in ("mp_rdma", "ideal"),
        "needs_switch": scheme.startswith(("themis", "conweave")),
    }


@pytest.mark.figure("design-space")
def test_design_space(benchmark):
    results = benchmark.pedantic(
        lambda: {label: _run(scheme, transport)
                 for label, scheme, transport in CONDITIONS},
        rounds=1, iterations=1)

    print("\n=== The §2.3 design space on the Fig. 1 workload ===")
    print(format_table(
        ["approach", "tail us", "retx", "goodput", "new NIC?",
         "switch logic?"],
        [[label, f"{r['tail_us']:.0f}", percent(r["retx"]),
          f"{r['goodput']:.1f}",
          "yes" if r["needs_new_nic"] else "no",
          "yes" if r["needs_switch"] else "no"]
         for label, r in results.items()]))

    assert all(r["done"] for r in results.values())
    problem = results["commodity + spray"]
    themis = results["themis"]
    ideal = results["ideal + spray"]
    # Themis recovers most of the gap to Ideal on commodity NICs.
    assert themis["goodput"] > problem["goodput"]
    assert themis["retx"] < 0.3 * problem["retx"]
    assert ideal["goodput"] >= themis["goodput"] * 0.95
    # The NIC-modifying alternative is competitive — but needs new NICs.
    mp = results["mp_rdma + spray"]
    assert mp["goodput"] > problem["goodput"]
    assert mp["needs_new_nic"]
    # Flowlet LB degenerates to per-flow: no retx, but no spraying gain.
    flowlet = results["commodity + flowlet"]
    assert flowlet["retx"] < 0.01
    assert themis["goodput"] > flowlet["goodput"]