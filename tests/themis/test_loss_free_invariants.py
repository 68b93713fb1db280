"""Loss-free Themis runs: no NACK gets through and nothing is resent.

With no packet lost, every NACK a receiver emits is spurious, so
Themis-D must block all of them (Eq. 3 on the right tPSN) and no sender
may retransmit.  Two bugs broke this on ordinary fabrics: 8-bit ring
entries aliased once a 100 G ring held more than 127 PSNs, picking the
wrong tPSN, and a stop rule at the last receiver cancelled delayed ACKs
still in flight, leaving senders to an RTO.
"""

from __future__ import annotations

import pytest

from repro.collectives.group import interleaved_ring_groups, ring_pairs
from repro.harness.arena import QUICK_TOPOLOGIES
from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.tracing import run_traced_alltoall
from repro.harness.workload import alltoall_pairs, post_messages
from repro.sim.engine import SEC, US

MESSAGE_BYTES = 400_000


def run_themis(topo: TopologySpec, pairs) -> Network:
    net = Network(NetworkConfig(topology=topo, scheme="themis", seed=1))
    traffic = post_messages(net, pairs, MESSAGE_BYTES)
    net.run(until_ns=SEC)
    net.stop()
    assert traffic.complete
    return net


def assert_nothing_spurious(net: Network) -> None:
    summary = net.metrics.summary()
    assert summary["themis_blocked"] > 0
    assert (summary["themis_forwarded"], summary["retransmissions"]) \
        == (0, 0)


@pytest.mark.parametrize("n_paths", [2, 4, 8])
def test_fig1_rings_forward_no_nack(n_paths):
    """The Fig. 1 rings on a 100 G 4-ToR leaf-spine: a 425-entry ring
    (10-bit entries) behind every QP.  With 8-bit entries N = 2 forwarded
    58 NACKs and resent 39 packets."""
    topo = TopologySpec(kind="leaf_spine", num_tors=4, num_spines=n_paths,
                        nics_per_tor=2, link_bandwidth_bps=100e9,
                        link_delay_ns=US)
    assert_nothing_spurious(
        run_themis(topo, ring_pairs(interleaved_ring_groups(8, 2))))


def test_quick_arena_fat_tree_alltoall_forwards_no_nack():
    """PathMap-mode Themis on the quick arena's k = 4 fat tree (407-entry
    rings at 25 G); with 8-bit entries 12 NACKs got through."""
    topo = TopologySpec(**QUICK_TOPOLOGIES["fat_tree"])
    assert_nothing_spurious(run_themis(topo, alltoall_pairs(16)))


def test_traced_alltoall_closes_every_message_without_a_retransmission():
    """The traced 8-node alltoall stops once every message is delivered
    and acknowledged; stopping at the last receiver cancelled delayed
    ACKs in flight and cost 48 RTO retransmissions."""
    net, _ = run_traced_alltoall(nodes=8, loss=0.0, seed=1,
                                 message_bytes=MESSAGE_BYTES,
                                 scheme="themis")
    assert net.traffic.complete
    assert net.metrics.open_messages == 0
    assert net.metrics.retransmissions == 0
    assert net.metrics.summary()["themis_forwarded"] == 0
