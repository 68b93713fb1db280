#!/usr/bin/env python
"""Fabric observability tour: tracing, utilization, fairness, export.

Runs the same cross-rack workload under ECMP and Themis and uses the
analysis toolkit to show *why* spraying wins: per-uplink byte counts
(ECMP collisions visible as imbalance), Jain fairness over flow
goodputs, and a per-hop packet trace proving Eq. 1 on the wire.
Results are exported to CSV/JSON next to this script.

Run:  python examples/fabric_analysis.py
"""

from pathlib import Path

from repro import Network, NetworkConfig, TopologySpec
from repro.harness.analysis import (flow_fairness, link_utilization,
                                    uplink_imbalance)
from repro.harness.export import flows_to_csv, run_to_json
from repro.harness.report import format_table
from repro.obs.record import PACKET, Recorder

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=8,
                    nics_per_tor=8, link_bandwidth_bps=25e9)
OUT_DIR = Path(__file__).parent / "output"


def run(scheme: str):
    # Packet capture = the recorder's PACKET channel, retained in full:
    # one (t, cat, name, location, header-fields) record per switch hop.
    recorder = Recorder(categories={PACKET}, retain={PACKET})
    net = Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=7),
                  recorder=recorder)
    for i in range(8):                     # rack 0 -> rack 1, 8 flows
        net.post_message(i, 8 + i, 1_000_000)
    net.run(until_ns=60_000_000_000)
    assert net.metrics.all_flows_done()
    return net, recorder.records(PACKET)


def main() -> None:
    rows = []
    for scheme in ("ecmp", "themis"):
        net, hops = run(scheme)

        print(f"\n##### scheme = {scheme}")
        uplinks = [u for u in link_utilization(net) if u.src == "tor0"]
        print(format_table(
            ["uplink", "bytes", "busy"],
            [[f"{u.src}->{u.dst}", u.bytes_sent,
              f"{u.busy_fraction:.1%}"] for u in uplinks]))
        imbalance = uplink_imbalance(net, "tor0")
        fairness = flow_fairness(net)
        print(f"uplink imbalance (max/mean): {imbalance:.2f}   "
              f"flow fairness (Jain): {fairness:.3f}")
        rows.append([scheme, f"{imbalance:.2f}", f"{fairness:.3f}",
                     f"{net.metrics.mean_goodput_gbps():.1f}"])

        # Which spine did each of flow 0's first packets take?
        spine_of = {h["pkt_id"]: loc for _, _, _, loc, h in hops
                    if loc.startswith("spine")}
        picks = [(h["psn"], spine_of[h["pkt_id"]])
                 for _, _, _, loc, h in hops
                 if h["ptype"] == "data" and h["src"] == 0
                 and loc == "tor0"][:8]
        print("flow 0->8 PSN->spine: "
              + "  ".join(f"{psn}:{spine}" for psn, spine in picks))

        flows_to_csv(net.metrics, OUT_DIR / f"{scheme}_flows.csv")
        run_to_json(net.metrics, OUT_DIR / f"{scheme}_run.json",
                    extra={"scheme": scheme})

    print("\n==== Summary ====")
    print(format_table(
        ["scheme", "uplink imbalance", "Jain fairness", "goodput Gbps"],
        rows))
    print(f"\nCSV/JSON exports in {OUT_DIR}/")


if __name__ == "__main__":
    main()
