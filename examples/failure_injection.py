#!/usr/bin/env python
"""Fault injection: NACK compensation doing real work (§3.4, §6).

The paper's evaluation is loss-free; here we inject random drops on the
core links so some NACKs are *valid* (real loss) and some invalid (skew).
Themis must block the invalid ones while still recovering real losses
quickly — via forwarded valid NACKs and compensated NACKs for blocked
ePSNs that later prove lost — instead of waiting out retransmission
timeouts.

Run:  python examples/failure_injection.py [loss_rate]
"""

import sys

from repro import motivation_config
from repro.collectives.group import interleaved_ring_groups, ring_pairs
from repro.harness.network import Network
from repro.harness.report import format_table
from repro.harness.workload import post_messages


def run(scheme: str, loss_rate: float) -> dict:
    net = Network(motivation_config(scheme=scheme, seed=7))
    for switch in net.topology.switches:
        if switch.name.startswith("spine"):
            for port in switch.ports:
                port.set_loss(loss_rate,
                              net.rng.fork(f"loss-{port.name}"))
    post_messages(net, ring_pairs(interleaved_ring_groups(8, 2)),
                  1_000_000)
    net.run(until_ns=60_000_000_000)

    metrics = net.metrics
    done = [f.receiver_done_ns for f in metrics.flows.values()
            if f.receiver_done_ns is not None]
    return {
        "scheme": scheme,
        "completed": metrics.all_flows_done(),
        "tail_us": max(done) / 1000 if done else float("nan"),
        "drops": metrics.drops,
        "timeouts": sum(f.timeouts for f in metrics.flows.values()),
        "nacks": metrics.nacks_generated,
        "blocked": metrics.themis.nacks_blocked,
        "forwarded": metrics.themis.nacks_forwarded,
        "compensated": metrics.themis.nacks_compensated,
    }


def main() -> None:
    loss_rate = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    print(f"Injecting {loss_rate:.1%} data-packet loss on all core links\n")

    rows = []
    for scheme in ("rps", "themis_nocomp", "themis"):
        r = run(scheme, loss_rate)
        rows.append([r["scheme"], r["completed"], f"{r['tail_us']:.0f}",
                     r["drops"], r["timeouts"], r["nacks"], r["blocked"],
                     r["forwarded"], r["compensated"]])
    print(format_table(
        ["scheme", "done", "tail us", "drops", "RTOs", "NACKs",
         "blocked", "forwarded", "compensated"], rows))

    print(
        "\nReading guide:\n"
        "  * rps           — every NACK reaches the sender: loss recovery\n"
        "    is instant but spurious retransmissions/slow-starts abound.\n"
        "  * themis_nocomp — invalid NACKs blocked; a blocked-but-lost\n"
        "    packet must wait for an RTO (more timeouts, longer tail).\n"
        "  * themis        — compensated NACKs stand in for the blocked\n"
        "    ones, keeping recovery NACK-driven.")


if __name__ == "__main__":
    main()
