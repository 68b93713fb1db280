"""Extension — measured switch state vs the §4 analytical model.

Runs an Alltoall (the QP-heaviest collective, §4's sizing case) under
Themis and audits every ToR's actual flow-table + ring-queue + PathMap
footprint using the paper's per-entry byte constants, then compares with
what Eq. 4 predicts for the same QP census and ring capacity.
"""

import pytest

from repro.harness.collective_runner import EvalScale, fig5_config
from repro.harness.network import Network
from repro.harness.report import format_table
from repro.themis.audit import audit_network
from repro.themis.memory import FLOW_ENTRY_BYTES, queue_entry_bytes
from repro.themis.ring_queue import psn_bits_for


@pytest.mark.figure("memory-audit")
def test_memory_audit_matches_model(benchmark):
    scale = EvalScale()

    def run():
        config = fig5_config("themis", 10, 200, scale=scale)
        net = Network(config)
        from repro.collectives import AllToAll
        from repro.collectives.group import cross_rack_groups
        groups = cross_rack_groups(scale.num_tors, scale.nics_per_tor)
        colls = [AllToAll(net, members, scale.collective_bytes)
                 for members in groups]
        for coll in colls:
            coll.start()
        net.run(until_ns=60_000_000_000)
        audits = audit_network(net)
        # Runtime ring capacity for any cross-rack flow:
        from repro.net.packet import FlowKey
        flow = FlowKey(0, scale.nics_per_tor)
        cap = net._queue_capacity_for(flow)
        n_paths = net._n_paths_for(flow)
        done = all(c.complete for c in colls)
        net.stop()
        return audits, cap, n_paths, done

    audits, ring_capacity, n_paths, done = benchmark.pedantic(
        run, rounds=1, iterations=1)
    assert done

    # Eq. 4 prices each entry at the width the ring derives.
    ring_bytes = ring_capacity * queue_entry_bytes(
        psn_bits_for(ring_capacity, n_paths))
    rows = []
    for audit in audits:
        model_dest = audit.flow_entries * (FLOW_ENTRY_BYTES + ring_bytes)
        rows.append([audit.switch_name, audit.flow_entries,
                     audit.dest_bytes, model_dest, audit.source_bytes])
    print("\n=== Measured Themis switch state vs Eq. 4 ===")
    print(f"(runtime ring capacity: {ring_capacity} entries/QP)")
    print(format_table(
        ["ToR", "QPs", "measured dest B", "Eq.4 dest B", "source B"],
        rows))

    total_qps = sum(a.flow_entries for a in audits)
    # Every cross-rack (src, dst) pair terminates somewhere: n_tors *
    # nics_per_tor senders each talking to (group_size - 1) peers.
    expected_qps = (scale.num_tors * scale.nics_per_tor
                    * (scale.num_tors - 1))
    assert total_qps == expected_qps
    for audit, row in zip(audits, rows):
        # Every ring on the fabric has the same capacity and N, hence
        # the same width: the measured footprint equals the model.
        assert audit.dest_bytes == row[3]
    # And the grand total stays tiny relative to switch SRAM.
    total = sum(a.total_bytes for a in audits)
    print(f"total Themis state across {len(audits)} ToRs: {total} B")
    assert total < 64 * 1024 * 1024 * 0.01
