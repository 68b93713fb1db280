"""Extension — loss recovery latency under Themis (§6 robustness).

The paper's experiments are loss-free; this bench injects real core loss
and verifies Themis's invariant: valid NACKs still reach the sender and
compensated NACKs stand in for blocked ones, so recovery stays mostly
NACK-driven instead of degenerating to RTO waits.
"""

import pytest

from repro.collectives.group import interleaved_ring_groups, ring_pairs
from repro.harness.motivation import motivation_config
from repro.harness.network import Network
from repro.harness.report import format_table, percent
from repro.harness.workload import post_messages

FLOW_BYTES = 1_000_000
LOSS_RATES = (0.0005, 0.002, 0.01)


def _run(scheme, loss_rate, seed=11):
    net = Network(motivation_config(scheme=scheme, seed=seed))
    for sw in net.topology.switches:
        if sw.name.startswith("spine"):
            for port in sw.ports:
                port.set_loss(loss_rate, net.rng.fork(f"l{port.name}"))
    post_messages(net, ring_pairs(interleaved_ring_groups(8, 2)),
                  FLOW_BYTES)
    net.run(until_ns=60_000_000_000)
    metrics = net.metrics
    done = [f.receiver_done_ns for f in metrics.flows.values()
            if f.receiver_done_ns is not None]
    timeouts = sum(f.timeouts for f in metrics.flows.values())
    net.stop()
    return {
        "done": metrics.all_flows_done(),
        "tail_us": max(done) / 1000 if done else None,
        "drops": metrics.drops,
        "timeouts": timeouts,
        "compensated": metrics.themis.nacks_compensated,
        "forwarded": metrics.themis.nacks_forwarded,
    }


@pytest.mark.figure("loss-recovery")
def test_loss_recovery_sweep(benchmark):
    results = benchmark.pedantic(
        lambda: {rate: {scheme: _run(scheme, rate)
                        for scheme in ("rps", "themis")}
                 for rate in LOSS_RATES},
        rounds=1, iterations=1)

    print("\n=== Loss recovery under injected core loss ===")
    rows = []
    for rate, by_scheme in results.items():
        for scheme, r in by_scheme.items():
            rows.append([percent(rate), scheme,
                         f"{r['tail_us']:.0f}" if r["tail_us"] else "DNF",
                         r["drops"], r["timeouts"], r["compensated"]])
    print(format_table(
        ["loss", "scheme", "tail us", "drops", "timeouts", "compensated"],
        rows))

    for rate, by_scheme in results.items():
        # Reliability invariant: everything completes despite loss.
        assert by_scheme["rps"]["done"], rate
        assert by_scheme["themis"]["done"], rate
    # At the higher loss rates compensation is exercised.
    heavy = results[LOSS_RATES[-1]]["themis"]
    assert heavy["compensated"] > 0
    # Themis still lets genuinely-needed NACKs through.  A forward needs
    # the lost PSN's same-path successor to arrive before any other-path
    # one: 0-6 per run at 1 % loss over seeds 1-3, 5-7 and 11, so one
    # seed may see none (seed 11 does), and the check sums three.
    forwarded = heavy["forwarded"] + sum(
        _run("themis", LOSS_RATES[-1], seed=seed)["forwarded"]
        for seed in (1, 2))
    assert forwarded > 0
