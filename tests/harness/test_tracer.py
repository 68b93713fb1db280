"""Per-hop packet capture — including the end-to-end Eq. 1 check.

The capture is the Recorder's PACKET channel: ``Switch.receive`` emits
one ``hop`` record per packet per switch, ahead of any Themis middleware,
carrying time, location and a header snapshot (pkt_id, ptype, src, dst,
qp, psn, epsn, path_index, is_retx).
"""

from repro.harness.network import Network, NetworkConfig, TopologySpec
from repro.harness.workload import lossy_uplinks
from repro.obs.record import PACKET, Recorder

TOPO = TopologySpec(kind="leaf_spine", num_tors=2, num_spines=4,
                    nics_per_tor=1, link_bandwidth_bps=25e9)


class Hop:
    """One PACKET record, fields as attributes."""

    def __init__(self, record):
        self.time_ns, _, _, self.location, data = record
        self.__dict__.update(data)


def capture(net, *, qp=None):
    """Every hop the recorder retained, optionally of one QP only (both
    directions: ACKs/NACKs ride the reversed flow of the same QP)."""
    hops = [Hop(r) for r in net.recorder.records(PACKET)]
    return [h for h in hops if qp is None or h.qp == qp]


def hops_of(hops, pkt_id):
    return [h for h in hops if h.pkt_id == pkt_id]


def spine_of(hops, pkt_id):
    """The non-ToR switch one packet traversed (leaf-spine only)."""
    for hop in hops_of(hops, pkt_id):
        if not hop.location.startswith("tor"):
            return hop.location
    return None


def build(scheme):
    return Network(NetworkConfig(topology=TOPO, scheme=scheme, seed=2),
                   recorder=Recorder(retain={PACKET}))


def traced_run(scheme, nbytes=150_000):
    net = build(scheme)
    net.post_message(0, 1, nbytes)
    net.run(until_ns=10_000_000_000)
    assert net.metrics.all_flows_done()
    return net, capture(net)


class TestCapture:
    def test_records_every_hop(self):
        net, hops = traced_run("ecmp")
        # Any data packet crosses tor0 -> spineX -> tor1 = 3 switches.
        first_data = next(h for h in hops if h.ptype == "data")
        path = [h.location for h in hops_of(hops, first_data.pkt_id)]
        assert len(path) == 3
        assert path[0] == "tor0"
        assert path[1].startswith("spine")
        assert path[2] == "tor1"

    def test_flow_filter(self):
        net = build("ecmp")
        net.post_message(0, 1, 50_000, qp=7)
        net.post_message(1, 0, 50_000, qp=3)  # different flow
        net.run(until_ns=10_000_000_000)
        everything = capture(net)
        only_qp7 = capture(net, qp=7)
        assert only_qp7 and len(only_qp7) < len(everything)
        assert {(h.src, h.dst) for h in only_qp7} == {(0, 1), (1, 0)}

    def test_acks_captured_on_reverse_flow_filter(self):
        net, _ = traced_run("ecmp")
        assert any(h.ptype == "ack" and (h.src, h.dst) == (1, 0)
                   for h in capture(net, qp=0))


class TestEq1EndToEnd:
    def test_psn_residue_determines_spine(self):
        """The capture proves Eq. 1 on the wire: under Themis every data
        packet's spine is a function of PSN mod N only."""
        net, hops = traced_run("themis", nbytes=300_000)
        n = 4  # spines
        spine_by_residue = {}
        for hop in hops:
            if hop.ptype != "data" or hop.location != "tor0":
                continue
            spine = spine_of(hops, hop.pkt_id)
            spine_by_residue.setdefault(hop.psn % n, set()).add(spine)
        assert set(spine_by_residue) == {0, 1, 2, 3}
        for residue, spines in spine_by_residue.items():
            assert len(spines) == 1, f"residue {residue} split: {spines}"
        distinct = {next(iter(s)) for s in spine_by_residue.values()}
        assert len(distinct) == 4

    def test_ecmp_single_path(self):
        net, hops = traced_run("ecmp")
        spines = {spine_of(hops, h.pkt_id) for h in hops
                  if h.ptype == "data" and h.location == "tor0"}
        assert len(spines) == 1

    def test_rps_uses_many_paths(self):
        net, hops = traced_run("rps")
        spines = {spine_of(hops, h.pkt_id) for h in hops
                  if h.ptype == "data" and h.location == "tor0"}
        assert len(spines) == 4


class TestQueryHelpers:
    def test_packets_by_psn(self):
        """The header snapshot is the packet's: every hop of the first
        PSN-0 data packet reports the same PSN and type."""
        net, hops = traced_run("themis", nbytes=50_000)
        first = next(h for h in hops if h.ptype == "data" and h.psn == 0)
        path = hops_of(hops, first.pkt_id)
        assert len(path) == 3
        assert all(h.psn == 0 and h.ptype == "data" for h in path)

    def test_nack_events_collected_when_present(self):
        """Every NACK the receiver generates enters the fabric at tor1."""
        net, hops = traced_run("rps", nbytes=150_000)
        nacks = [h for h in hops
                 if h.ptype == "nack" and h.location == "tor1"]
        assert len(nacks) == net.metrics.nacks_generated

    def test_nack_events_present_on_lossy_uplinks(self):
        net = build("rps")
        lossy_uplinks(net, net.topology.tors[:1], 0.05, "loss")
        net.post_message(0, 1, 150_000)
        net.run(until_ns=10_000_000_000)
        nacks = [h for h in capture(net) if h.ptype == "nack"]
        assert nacks, "lossy run produced no NACK hop records"
