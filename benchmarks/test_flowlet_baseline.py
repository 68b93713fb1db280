"""Baseline — why flowlet LB fails for RNICs (§2.3).

The flowlet dilemma the paper invokes: RNIC hardware pacing produces no
inter-packet gaps, so with a safe (large) flowlet timeout a flow never
splits — flowlet LB degenerates to per-flow hashing and inherits ECMP's
collision problem; forcing splits with a timeout below the path-delay
spread reorders packets and triggers the NIC-SR NACK pathology instead.
This sweep measures both horns of the dilemma on the Fig. 1 workload.
"""

import pytest

from repro.collectives.group import interleaved_ring_groups, ring_pairs
from repro.harness.motivation import motivation_config
from repro.harness.network import Network
from repro.harness.report import format_table, percent
from repro.harness.workload import post_messages
from repro.sim.engine import US
from repro.switch.lb import FlowletLB

FLOW_BYTES = 2_000_000
GAPS_US = (0.2, 1, 5, 50, 500)


def _run(gap_us=None, scheme="flowlet", seed=4):
    kwargs = {}
    if gap_us is not None:
        kwargs["flowlet_gap_ns"] = int(gap_us * US)
    net = Network(motivation_config(scheme=scheme, seed=seed, **kwargs))
    post_messages(net, ring_pairs(interleaved_ring_groups(8, 2)),
                  FLOW_BYTES)
    net.run(until_ns=60_000_000_000)
    metrics = net.metrics
    done = [f.receiver_done_ns for f in metrics.flows.values()
            if f.receiver_done_ns is not None]
    splits = sum(s.lb.flowlet_switches for s in net.topology.switches
                 if isinstance(s.lb, FlowletLB))
    net.stop()
    return {
        "tail_us": max(done) / 1000 if metrics.all_flows_done() else None,
        "splits": splits,
        "retx": metrics.spurious_ratio,
        "nacks": metrics.nacks_generated,
        "goodput": metrics.mean_goodput_gbps(),
        "done": metrics.all_flows_done(),
    }


@pytest.mark.figure("flowlet-baseline")
def test_flowlet_dilemma(benchmark):
    def sweep():
        rows = {gap: _run(gap_us=gap) for gap in GAPS_US}
        rows["ecmp"] = _run(scheme="ecmp")
        rows["themis"] = _run(scheme="themis")
        return rows

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n=== Flowlet gap sweep (Fig. 1 workload) ===")
    print(format_table(
        ["config", "flowlet splits", "NACKs", "retx", "goodput Gbps"],
        [[f"gap={k} us" if isinstance(k, (int, float)) else k,
          r["splits"], r["nacks"], percent(r["retx"]),
          f"{r['goodput']:.1f}"] for k, r in results.items()]))

    assert all(r["done"] for r in results.values())
    safe = results[GAPS_US[-1]]     # 500 us gap: never splits
    tiny = results[GAPS_US[0]]      # 0.2 us gap: splits on any hiccup
    # Horn 1 (the paper's §2.3 point): at every realistic timeout the
    # hardware-paced stream never opens a gap — zero splits, per-flow
    # behaviour, no load-balancing win over ECMP's granularity.
    for gap in GAPS_US[1:]:
        assert results[gap]["splits"] == 0, gap
        assert results[gap]["nacks"] == 0, gap
    # Horn 2: forcing splits (timeout below the pacing gap's jitter)
    # reorders and wakes the NACK pathology up.
    assert tiny["splits"] > 20
    assert tiny["retx"] > 0.005
    # Themis with packet-level spraying beats both horns.
    assert results["themis"]["goodput"] > safe["goodput"]
    assert results["themis"]["goodput"] > tiny["goodput"]
