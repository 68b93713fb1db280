"""Tests for the deployed-state memory audit."""

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.themis.audit import audit_network
from repro.themis.memory import FLOW_ENTRY_BYTES

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=2,
                    nics_per_tor=2, link_bandwidth_bps=25e9)


def loaded_network(scheme="themis", n_flows=2):
    net = Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=1))
    pairs = [(0, 2), (1, 3), (2, 1), (3, 0)][:n_flows]
    for src, dst in pairs:
        net.post_message(src, dst, 100_000)
    net.run(until_ns=10_000_000_000)
    return net


class TestAudit:
    def test_counts_cross_rack_qps(self):
        net = loaded_network(n_flows=2)  # 0->2 and 1->3, one per dst ToR
        audits = {a.switch_name: a for a in audit_network(net)}
        # Each ToR terminates exactly one cross-rack QP.
        assert audits["tor0"].flow_entries + audits["tor1"].flow_entries \
            == 2

    def test_dest_bytes_match_constants(self):
        net = loaded_network(n_flows=1)
        audit = next(a for a in audit_network(net) if a.flow_entries)
        assert audit.dest_bytes \
            == FLOW_ENTRY_BYTES + audit.queue_bytes

    def test_source_side_base_cache_priced(self):
        net = loaded_network(n_flows=2)
        total_pathmap = sum(a.pathmap_entries for a in audit_network(net))
        assert total_pathmap == 2  # one base-path word per sprayed flow

    def test_no_themis_no_state(self):
        net = loaded_network(scheme="ecmp")
        assert all(a.total_bytes == 0 for a in audit_network(net))

    def test_intra_rack_flows_cost_nothing(self):
        net = Network(NetworkConfig(topology=TOPO, scheme="themis",
                                    seed=1))
        net.post_message(0, 1, 50_000)  # same rack
        net.run(until_ns=10_000_000_000)
        assert all(a.total_bytes == 0 for a in audit_network(net))

    def test_widened_entries_are_priced_at_their_width(self):
        """A 100 G fabric's 425-entry ring over N = 4 paths needs 10-bit
        entries, so each costs 2 bytes, not 1."""
        net = Network(NetworkConfig(topology=TopologySpec(num_tors=2),
                                    scheme="themis", seed=1))
        net.post_message(0, 2, 50_000)
        net.run(until_ns=10_000_000_000)
        (entry,) = [e for tor in net.topology.tors
                    for mw in tor.middleware if hasattr(mw, "table")
                    for e in mw.table.entries()]
        assert (entry.queue.capacity, entry.n_paths) == (425, 4)
        audit = next(a for a in audit_network(net) if a.flow_entries)
        assert audit.dest_bytes == FLOW_ENTRY_BYTES + 425 * 2

    def test_audit_scales_with_qp_count(self):
        small = sum(a.total_bytes
                    for a in audit_network(loaded_network(n_flows=2)))
        large = sum(a.total_bytes
                    for a in audit_network(loaded_network(n_flows=4)))
        assert large > small
