"""Pull-mode uplink: the wire picks the next QP.

A NIC uplink's data FIFO is a round-robin ring of sender QPs with an
eligible segment.  When the wire frees, the uplink pulls the head QP's
next segment (``SenderQp.pull``), which is stamped and built at that
instant; the QP stays on the ring only if its next pacing gap ends by the
time the wire frees, else it waits off the ring on its pacing timer.

* Ring invariant: a QP sits on its uplink's ring at most once (also
  across ``stop()`` and a re-post), a NIC uplink never queues a data
  packet or counts a queued byte, and every live ``Packet`` is queued at
  a switch or rides a pending delivery event.
* Fidelity: a rate cut spaces the QP's next segments by the new gap, and
  a NACK's retransmission leaves at the QP's next turn.  Both fail when
  each QP paces segments into an uplink FIFO at its own rate, so that a
  cut or a retransmission waits behind everything already queued.
* Wire sequence: one uplink, fed by three QPs at three times its rate,
  pinned as ``(time, tx or drop reason, flow, psn, is_retx)``.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.cc.base import FixedRate
from repro.cc.dcqcn import Dcqcn, DcqcnConfig
from repro.harness.bench import build_scenario
from repro.harness.metrics import Metrics
from repro.net.node import Device
from repro.net.packet import DATA_HEADER_BYTES, FlowKey, Packet, release_packet
from repro.net.port import Port
from repro.obs.record import DROP, Recorder
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.rnic.qp import SenderQp
from repro.sim.engine import SEC, Simulator
from repro.sim.rng import SimRng

# ----------------------------------------------------------------------
# Ring invariant and the live-packet bound
# ----------------------------------------------------------------------
#: The quick alltoall posts every segment at t = 0; at 2 us its 32 NIC
#: uplinks have sent 544 of the 10 912 segments.
BACKLOG_PEAK_NS = 2_000


def live_packets() -> int:
    """Packets alive outside the free list (``Packet`` is GC-tracked)."""
    return sum(1 for obj in gc.get_objects()
               if type(obj) is Packet and not obj._in_pool)


def check_ring(uplink: Port) -> None:
    ring = list(uplink._data)
    assert all(type(qp) is SenderQp for qp in ring), ring
    assert len({id(qp) for qp in ring}) == len(ring), ring
    assert all(qp._send_token & 1 for qp in ring)
    assert uplink.queued_bytes == 0


def test_live_packets_are_in_flight_not_posted():
    gc.collect()
    elsewhere = live_packets()      # left over by anything run before
    net = build_scenario("alltoall", quick=True)
    posted = sum(qp.total_psns for nic in net.nics
                 for qp in nic.senders.values())
    net.sim.run(until=BACKLOG_PEAK_NS)
    sent = sum(qp.next_psn for nic in net.nics
               for qp in nic.senders.values())
    assert sent <= posted // 16     # nearly everything is still posted
    for nic in net.nics:
        check_ring(nic.uplink)
        assert nic.uplink._data     # backlogged
    live = live_packets() - elsewhere
    switch_queued = sum(len(port._data) + len(port._control)
                        for switch in net.topology.switches
                        for port in switch.ports)
    # Every live packet is queued at a switch or is the payload of a
    # pending delivery event.
    assert live <= switch_queued + net.sim.pending, (
        f"{live} live packets with {posted} segments posted")
    net.stop()


def test_ring_invariant_holds_through_a_whole_run():
    net = build_scenario("alltoall", quick=True)
    while not net.metrics.all_flows_done():
        net.sim.run(until=net.sim.now + 1_000)
        for nic in net.nics:
            check_ring(nic.uplink)
    net.stop()
    assert not any(nic.uplink._data for nic in net.nics)


# ----------------------------------------------------------------------
# One NIC uplink, fed by several backlogged QPs
# ----------------------------------------------------------------------
CONFIG = RnicConfig()
PAYLOAD = CONFIG.payload_bytes
LINE = 100e9
DELAY_NS = 1_000
#: Serialization of one full segment at line rate.
TX_NS = int((PAYLOAD + DATA_HEADER_BYTES) * 8 * SEC / LINE)


class Tap(Device):
    """The uplink's peer: records each delivered segment."""

    def __init__(self, sim: Simulator, wire: list) -> None:
        super().__init__(sim, "tap")
        self.wire = wire

    def receive(self, packet: Packet, in_port) -> None:
        self.wire.append((self.sim.now, "tx", str(packet.flow), packet.psn,
                          packet.is_retx))
        release_packet(packet)


def line_rate(sim: Simulator) -> FixedRate:
    return FixedRate(sim, LINE)


def nic_on_tap(make_cc=line_rate) -> tuple[Simulator, Rnic, list]:
    """A NIC whose uplink delivers into a :class:`Tap`, each QP's CC
    built by ``make_cc(sim)``; returns the simulator, the NIC and the
    tap's wire log."""
    sim = Simulator()
    nic = Rnic(sim, 0, config=CONFIG, metrics=Metrics(sim), rng=SimRng(0),
               cc_factory=lambda flow: make_cc(sim))
    uplink = Port(sim, nic, bandwidth_bps=LINE, delay_ns=DELAY_NS)
    wire: list = []
    uplink.connect(Tap(sim, wire))
    nic.uplink = uplink
    return sim, nic, wire


def pulled_after(wire: list, flow: FlowKey, after_ns: int) -> list:
    """``(pull instant, psn, is_retx)`` of each full segment of *flow*
    pulled after *after_ns* (the tap sees it one serialization and one
    propagation delay later)."""
    return [(entry[0] - TX_NS - DELAY_NS,) + entry[3:] for entry in wire
            if entry[2] == str(flow)
            and entry[0] - TX_NS - DELAY_NS > after_ns]


def test_stop_while_on_the_ring_then_repost_keeps_one_entry():
    sim, nic, wire = nic_on_tap()
    for dst in (1, 2, 3):
        nic.post_send(dst, 20 * PAYLOAD)
    sim.run(until=1_000)
    qp = nic.senders[FlowKey(0, 2)]
    assert qp in nic.uplink._data
    qp.stop()
    assert qp not in nic.uplink._data
    qp.post_send(20 * PAYLOAD)
    for until in range(1_000, 12_000, 50):
        sim.run(until=until)
        check_ring(nic.uplink)
    # Every PSN of the flow left exactly once, in order.
    psns = [entry[3] for entry in wire if entry[2] == "0->2#0"]
    assert psns == list(range(40))
    nic.stop()
    assert not nic.uplink._data


def test_rate_cut_spaces_the_next_segment_by_the_new_gap():
    """Four line-rate QPs share the uplink, so each gets a quarter of
    it.  Three DCQCN cuts take one QP to an eighth of line rate: the
    segment it sends next is stamped with the new gap, so from there on
    its segments leave at least one new gap apart, not at the
    round-robin cadence of segments paced before the cut."""
    config = DcqcnConfig(td_ns=0)
    sim, nic, wire = nic_on_tap(lambda sim: Dcqcn(sim, LINE, config))
    for dst in (1, 2, 3, 4):
        nic.post_send(dst, 60 * PAYLOAD)
    cut_at = 3_000
    cut = FlowKey(0, 1)
    sim.run(until=cut_at)
    qp = nic.senders[cut]
    for _ in range(3):
        qp.on_cnp()
    assert qp.cc.rate_bps == LINE / 8
    new_gap = int((PAYLOAD + DATA_HEADER_BYTES) * 8 * SEC / qp.cc.rate_bps)
    assert new_gap > 4 * TX_NS     # slower than its round-robin share
    sim.run(until=cut_at + 10 * new_gap)
    after = [t for t, _psn, _retx in pulled_after(wire, cut, cut_at)]
    assert after[0] - cut_at <= 4 * TX_NS
    gaps = [b - a for a, b in zip(after, after[1:])]
    assert len(gaps) >= 5 and min(gaps) >= new_gap, gaps
    # The other three QPs fill the wire the cut QP leaves idle.
    pulls = [entry[0] for entry in wire
             if cut_at < entry[0] - TX_NS - DELAY_NS < cut_at + 9 * new_gap]
    assert {b - a for a, b in zip(pulls, pulls[1:])} == {TX_NS}
    nic.stop()


def test_retransmission_leaves_at_the_qps_next_turn():
    """A NACK for PSN 1 of one of four backlogged QPs: its
    retransmission is that QP's next segment on the wire, within one
    round of the ring."""
    sim, nic, wire = nic_on_tap()
    for dst in (1, 2, 3, 4):
        nic.post_send(dst, 60 * PAYLOAD)
    nack_at = 3_000
    flow = FlowKey(0, 1)
    sim.run(until=nack_at)
    nic.senders[flow].on_nack(1)
    sim.run(until=nack_at + 20 * TX_NS)
    pulled_at, psn, is_retx = pulled_after(wire, flow, nack_at)[0]
    assert (psn, is_retx) == (1, True)
    assert pulled_at - nack_at <= 4 * TX_NS
    nic.stop()


# ----------------------------------------------------------------------
# The pinned wire sequence of one uplink
# ----------------------------------------------------------------------
#: nic0's messages, all posted at t = 0: three QPs, each paced at line
#: rate, so the uplink backlogs; the third message ends in a 100 B tail.
MESSAGES = ((1, 4 * PAYLOAD), (2, 4 * PAYLOAD), (3, 3 * PAYLOAD + 100))


def run_uplink(case: str) -> tuple[list, list, list]:
    """Run *case*; returns the wire sequence, the ``on_drop`` packet ids
    and the DROP records."""
    sim, nic, wire = nic_on_tap()
    uplink = nic.uplink
    dropped_ids: list = []
    recorder = Recorder([DROP], retain=[DROP])
    uplink._rec_drop = recorder

    def on_drop(packet: Packet, port: Port) -> None:
        wire.append((sim.now, "drop", str(packet.flow), packet.psn,
                     packet.is_retx))
        dropped_ids.append(packet.pkt_id)

    uplink.on_drop = on_drop

    def set_up(up: bool) -> None:
        uplink.up = up

    if case == "pfc_pause":
        sim.schedule(400, uplink.pause_data)
        sim.schedule(1_500, uplink.resume_data)
    elif case == "loss_and_link_down":
        uplink.set_loss(0.3, random.Random(1))
        sim.schedule(500, set_up, False)
        sim.schedule(800, set_up, True)
    elif case == "flush":
        sim.schedule(700, uplink.flush)
    for dst, nbytes in MESSAGES:
        nic.post_send(dst, nbytes)
    sim.run(until=20_000)
    nic.stop()
    return wire, dropped_ids, recorder.records(DROP)


#: ``(time, tx or drop reason, flow, psn, is_retx)`` per segment: three
#: backlogged QPs taking turns; a PFC pause from 400 to 1 500 ns; 30 %
#: loss plus the link down from 500 to 800 ns; a flush at 700 ns, which
#: finds only QPs on the ring and so drops nothing.  Every case carries
#: the 100 B tail of ``0->3#0``.  ``0->1#0`` sends twice in a row at the
#: start: posted first, it is pulled at once and is back on the ring
#: before the other two QPs are posted.
EXPECTED: dict[str, list] = {
    "backlog": [
        (1120, "tx", "0->1#0", 0, False),
        (1240, "tx", "0->1#0", 1, False),
        (1360, "tx", "0->2#0", 0, False),
        (1480, "tx", "0->3#0", 0, False),
        (1600, "tx", "0->1#0", 2, False),
        (1720, "tx", "0->2#0", 1, False),
        (1840, "tx", "0->3#0", 1, False),
        (1960, "tx", "0->1#0", 3, False),
        (2080, "tx", "0->2#0", 2, False),
        (2200, "tx", "0->3#0", 2, False),
        (2320, "tx", "0->2#0", 3, False),
        (2332, "tx", "0->3#0", 3, False),
    ],
    "loss_and_link_down": [
        (0, "loss", "0->1#0", 0, False),
        (360, "loss", "0->3#0", 0, False),
        (600, "link_down", "0->2#0", 1, False),
        (720, "link_down", "0->3#0", 1, False),
        (1200, "loss", "0->2#0", 3, False),
        (1240, "tx", "0->1#0", 1, False),
        (1320, "loss", "0->3#0", 3, False),
        (1360, "tx", "0->2#0", 0, False),
        (1600, "tx", "0->1#0", 2, False),
        (1960, "tx", "0->1#0", 3, False),
        (2080, "tx", "0->2#0", 2, False),
        (2200, "tx", "0->3#0", 2, False),
    ],
    "pfc_pause": [
        (1120, "tx", "0->1#0", 0, False),
        (1240, "tx", "0->1#0", 1, False),
        (1360, "tx", "0->2#0", 0, False),
        (1480, "tx", "0->3#0", 0, False),
        (2620, "tx", "0->1#0", 2, False),
        (2740, "tx", "0->2#0", 1, False),
        (2860, "tx", "0->3#0", 1, False),
        (2980, "tx", "0->1#0", 3, False),
        (3100, "tx", "0->2#0", 2, False),
        (3220, "tx", "0->3#0", 2, False),
        (3340, "tx", "0->2#0", 3, False),
        (3352, "tx", "0->3#0", 3, False),
    ],
}
EXPECTED["flush"] = EXPECTED["backlog"]


def labelled_wire(case: str) -> list:
    """The wire sequence of *case*, each drop labelled with its DROP
    record's reason; checks that the record and ``on_drop`` saw the same
    built packet."""
    wire, dropped_ids, records = run_uplink(case)
    drops = [entry for entry in wire if entry[1] == "drop"]
    assert [(r[4]["pkt_id"], r[4]["flow"], r[4]["psn"]) for r in records] \
        == [(pkt_id, d[2], d[3]) for pkt_id, d in zip(dropped_ids, drops)]
    assert len(records) == len(drops)
    reasons = iter(record[4]["reason"] for record in records)
    return [(entry[0], next(reasons)) + entry[2:] if entry[1] == "drop"
            else entry for entry in wire]


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_wire_sequence(case):
    assert labelled_wire(case) == EXPECTED[case]
