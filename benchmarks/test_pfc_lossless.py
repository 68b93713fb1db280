"""Extension — Themis on a lossless (PFC) fabric.

The paper evaluates on a lossy-with-ECN fabric (Zero-Touch-RoCE style).
Many production RoCE fabrics instead run PFC.  Two demonstrations:

* an **incast** into a shallow-buffered rack: the lossy fabric drops and
  recovers via retransmission; with PFC the pressure backs up into the
  senders and not one packet is lost,
* the **Fig. 1 ring** under Themis on both fabrics: the invalid-NACK
  pathology is caused by multi-path *skew*, not loss, so going lossless
  does not remove it — and Themis filters identically on both.
"""

import pytest

from repro.harness.motivation import build_motivation, motivation_config
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.report import format_table, percent
from repro.harness.workload import run_built
from repro.sim.engine import US
from repro.switch.pfc import PfcConfig

RING_BYTES = 2_000_000
INCAST_BYTES = 500_000
# XOFF must leave headroom: with ~6 active ingress ports per ToR and a
# 100 KB shared buffer, 6 x 12 KB + ~25 KB of pause-propagation
# in-flight bytes still fits — the standard PFC headroom calculation.
PFC = PfcConfig(xoff_bytes=12_000, xon_bytes=6_000)


def _run_incast(pfc, seed=9):
    """7:1 incast into one NIC through a shallow-buffered fabric."""
    topo = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                        nics_per_tor=4, link_bandwidth_bps=25e9,
                        link_delay_ns=US)
    net = Network(NetworkConfig(topology=topo, scheme="ecmp",
                                buffer_bytes=100_000, pfc=pfc, seed=seed))
    receiver = 4
    for src in (0, 1, 2, 3, 5, 6, 7):
        net.post_message(src, receiver, INCAST_BYTES, qp=src)
    run_built(net, 120_000_000_000)
    return _collect(net)


def _run_ring(scheme, pfc, seed=9):
    net = build_motivation(motivation_config(scheme=scheme, seed=seed,
                                             pfc=pfc),
                           flow_bytes=RING_BYTES)
    run_built(net, 120_000_000_000)
    return _collect(net)


def _collect(net):
    metrics = net.metrics
    return {
        "done": metrics.all_flows_done(),
        "drops": metrics.drops,
        "pauses": sum(s.pfc.pauses_sent for s in net.topology.switches
                      if s.pfc is not None),
        "retx": metrics.spurious_ratio,
        "nacks": metrics.nacks_generated,
        "blocked": metrics.themis.nacks_blocked,
        "goodput": metrics.mean_goodput_gbps(),
    }


@pytest.mark.figure("pfc-lossless")
def test_themis_on_lossless_fabric(benchmark):
    def sweep():
        return {
            ("incast/ecmp", "lossy"): _run_incast(None),
            ("incast/ecmp", "pfc"): _run_incast(PFC),
            ("ring/rps", "lossy"): _run_ring("rps", None),
            ("ring/rps", "pfc"): _run_ring("rps", PFC),
            ("ring/themis", "lossy"): _run_ring("themis", None),
            ("ring/themis", "pfc"): _run_ring("themis", PFC),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n=== Lossy (ECN) vs lossless (PFC) fabric ===")
    print(format_table(
        ["workload", "fabric", "drops", "pauses", "NACKs", "blocked",
         "retx", "goodput"],
        [[w, f, r["drops"], r["pauses"], r["nacks"], r["blocked"],
          percent(r["retx"]), f"{r['goodput']:.1f}"]
         for (w, f), r in results.items()]))

    assert all(r["done"] for r in results.values())
    # Incast: the lossy shallow buffer drops; PFC removes every drop.
    assert results[("incast/ecmp", "lossy")]["drops"] > 0
    assert results[("incast/ecmp", "pfc")]["drops"] == 0
    assert results[("incast/ecmp", "pfc")]["pauses"] > 0
    # Lossless does not cure the NACK pathology: skew still NACKs.
    assert results[("ring/rps", "pfc")]["nacks"] > 0
    assert results[("ring/rps", "pfc")]["drops"] == 0
    # Themis filters just the same on the lossless fabric.
    themis_pfc = results[("ring/themis", "pfc")]
    assert themis_pfc["blocked"] > 0
    assert themis_pfc["retx"] < results[("ring/rps", "pfc")]["retx"]
