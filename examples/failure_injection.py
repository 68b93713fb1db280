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
from repro.harness.motivation import build_motivation
from repro.harness.report import format_table
from repro.harness.workload import run_built


def run(scheme: str, loss_rate: float) -> dict:
    net = build_motivation(motivation_config(scheme=scheme, seed=7),
                           flow_bytes=1_000_000)
    for switch in net.topology.switches:
        if switch.name.startswith("spine"):
            for port in switch.ports:
                port.set_loss(loss_rate,
                              net.rng.fork(f"loss-{port.name}"))
    run_built(net, 60_000_000_000)

    metrics = net.metrics
    traffic = net.traffic
    return {
        "scheme": scheme,
        "completed": traffic.complete,
        "tail_us": (traffic.done_ns / 1000 if traffic.complete
                    else float("nan")),
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
