"""Ablation — what each Themis mechanism contributes (extension).

DESIGN.md §5: run the Fig. 1 motivation workload under
* full Themis (validation + compensation),
* themis_nocomp (validation only; blocked-but-lost packets wait for RTO),
* themis_noval (PSN spraying only; every commodity NACK reaches senders),
* plain random spraying (no Themis at all),
both on a loss-free fabric and with injected last-tier loss, where
compensation has to carry the recovery.
"""

import pytest

from repro.collectives.group import interleaved_ring_groups, ring_pairs
from repro.harness.motivation import motivation_config
from repro.harness.network import Network
from repro.harness.report import format_table, percent
from repro.harness.workload import post_messages

FLOW_BYTES = 2_000_000
SCHEMES = ("rps", "themis_noval", "themis_nocomp", "themis")


def _run(scheme, loss_rate=0.0, seed=3):
    net = Network(motivation_config(scheme=scheme, seed=seed))
    if loss_rate:
        for sw in net.topology.switches:
            if sw.name.startswith("spine"):
                for port in sw.ports:
                    port.set_loss(loss_rate,
                                  net.rng.fork(f"loss-{port.name}"))
    post_messages(net, ring_pairs(interleaved_ring_groups(8, 2)),
                  FLOW_BYTES)
    net.run(until_ns=30_000_000_000)
    metrics = net.metrics
    done = [f.receiver_done_ns for f in metrics.flows.values()
            if f.receiver_done_ns is not None]
    completion = max(done) if metrics.all_flows_done() else None
    timeouts = sum(f.timeouts for f in metrics.flows.values())
    net.stop()
    return {
        "scheme": scheme,
        "completion_us": completion / 1000 if completion else None,
        "retx_ratio": metrics.spurious_ratio,
        "nacks": metrics.nacks_generated,
        "blocked": metrics.themis.nacks_blocked,
        "compensated": metrics.themis.nacks_compensated,
        "timeouts": timeouts,
        "drops": metrics.drops,
        "goodput": metrics.mean_goodput_gbps(),
    }


@pytest.mark.figure("ablation-components")
def test_component_ablation_lossless(benchmark):
    results = benchmark.pedantic(
        lambda: [_run(s) for s in SCHEMES], rounds=1, iterations=1)
    print("\n=== Component ablation (loss-free ring workload) ===")
    print(format_table(
        ["scheme", "completion us", "retx", "NACKs", "blocked", "goodput"],
        [[r["scheme"], f"{r['completion_us']:.0f}",
          percent(r["retx_ratio"]), r["nacks"], r["blocked"],
          f"{r['goodput']:.1f}"] for r in results]))

    by = {r["scheme"]: r for r in results}
    # Validation is the big lever: spraying alone leaves the NACK damage.
    assert by["themis"]["retx_ratio"] < 0.3 * by["rps"]["retx_ratio"]
    assert by["themis_noval"]["retx_ratio"] > by["themis"]["retx_ratio"]
    # Without loss, compensation never fires but costs nothing.
    assert by["themis"]["compensated"] == 0
    assert by["themis"]["goodput"] >= 0.95 * by["themis_nocomp"]["goodput"]
    # End to end, Themis beats plain spraying.
    assert by["themis"]["goodput"] > by["rps"]["goodput"]


@pytest.mark.figure("ablation-components")
def test_component_ablation_with_loss(benchmark):
    results = benchmark.pedantic(
        lambda: [_run(s, loss_rate=0.002) for s in
                 ("themis_nocomp", "themis")],
        rounds=1, iterations=1)
    print("\n=== Component ablation (0.2% injected core loss) ===")
    print(format_table(
        ["scheme", "completion us", "drops", "timeouts", "compensated"],
        [[r["scheme"],
          f"{r['completion_us']:.0f}" if r["completion_us"] else "DNF",
          r["drops"], r["timeouts"], r["compensated"]] for r in results]))

    by = {r["scheme"]: r for r in results}
    assert by["themis"]["completion_us"] is not None
    assert by["themis_nocomp"]["completion_us"] is not None
    # Compensation converts timeout recoveries into NACK recoveries.
    assert by["themis"]["compensated"] > 0
    assert by["themis"]["timeouts"] <= by["themis_nocomp"]["timeouts"]
