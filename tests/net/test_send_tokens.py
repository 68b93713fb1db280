"""Send tokens: a NIC uplink queues senders and builds packets at the wire.

A sender QP does all its work at the pacing instant (PSN, retransmission
flag, counters, the next gap) and hands its uplink a token; the uplink
builds the packet (``SenderQp.wire_packet``) when it pops the token for
the wire.  So a backlog costs the QP and the PSN per segment, not a
packet.

* The live-packet bound runs the quick ``alltoall`` reference scenario to
  its NIC backlog peak and counts live ``Packet`` objects: every one must
  be queued at a switch or ride a pending delivery event, never wait in a
  NIC uplink.  When packets were built at the pacing instant, all 10 912
  posted segments were live at that point.
* The fidelity tests drive one uplink, fed by three QPs at three times its
  rate, through each case the token path has to get right, and compare
  the wire (and drop) sequence ``(time, event, flow, psn, is_retx,
  payload_bytes, udp_sport)`` with the one recorded when every packet was
  built at the pacing instant.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.cc.base import FixedRate
from repro.harness.bench import build_scenario
from repro.harness.metrics import Metrics
from repro.net.node import Device
from repro.net.packet import FlowKey, Packet, release_packet
from repro.net.port import Port
from repro.obs.record import DROP, Recorder
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng

# ----------------------------------------------------------------------
# Live-packet bound
# ----------------------------------------------------------------------
#: The quick alltoall posts every segment at t = 0; at 2 us its 32 NIC
#: uplinks hold 10 368 of the 10 912 segments.
BACKLOG_PEAK_NS = 2_000


def live_packets() -> int:
    """Packets alive outside the free list (``Packet`` is GC-tracked)."""
    return sum(1 for obj in gc.get_objects()
               if type(obj) is Packet and not obj._in_pool)


def test_live_packets_are_in_flight_not_posted():
    gc.collect()
    elsewhere = live_packets()      # left over by anything run before
    net = build_scenario("alltoall", quick=True)
    posted = sum(qp.total_psns for nic in net.nics
                 for qp in nic.senders.values())
    net.sim.run(until=BACKLOG_PEAK_NS)
    backlog = sum(nic.uplink.queued_bytes for nic in net.nics)
    assert backlog >= posted * net.config.rnic.mtu_bytes // 2
    live = live_packets() - elsewhere
    switch_queued = sum(len(port._data) + len(port._control)
                        for switch in net.topology.switches
                        for port in switch.ports)
    # Every live packet is queued at a switch or is the payload of a
    # pending delivery event.
    assert live <= switch_queued + net.sim.pending, (
        f"{live} live packets with {posted} segments posted")
    net.stop()


# ----------------------------------------------------------------------
# Token fidelity on one NIC uplink
# ----------------------------------------------------------------------
CONFIG = RnicConfig()
PAYLOAD = CONFIG.payload_bytes
LINE = 100e9
#: nic0's messages, all posted at t = 0: three QPs, each paced at line
#: rate, so the uplink backlogs; the third message ends in a 100 B tail.
MESSAGES = ((1, 4 * PAYLOAD), (2, 4 * PAYLOAD), (3, 3 * PAYLOAD + 100))


def segment(packet: Packet) -> tuple:
    return (str(packet.flow), packet.psn, packet.is_retx,
            packet.payload_bytes, packet.udp_sport)


class Tap(Device):
    """The uplink's peer: records each delivered segment."""

    def __init__(self, sim: Simulator, wire: list) -> None:
        super().__init__(sim, "tap")
        self.wire = wire

    def receive(self, packet: Packet, in_port) -> None:
        self.wire.append((self.sim.now, "tx") + segment(packet))
        release_packet(packet)


def run_uplink(case: str) -> tuple[list, list, list]:
    """Run *case*; returns the wire sequence, the ``on_drop`` packet ids
    and the DROP records."""
    sim = Simulator()
    nic = Rnic(sim, 0, config=CONFIG, metrics=Metrics(sim), rng=SimRng(0),
               cc_factory=lambda flow: FixedRate(sim, LINE))
    uplink = Port(sim, nic, bandwidth_bps=LINE, delay_ns=1000)
    wire: list = []
    dropped_ids: list = []
    uplink.connect(Tap(sim, wire))
    nic.uplink = uplink
    recorder = Recorder([DROP], retain=[DROP])
    uplink._rec_drop = recorder

    def on_drop(packet: Packet, port: Port) -> None:
        wire.append((sim.now, "drop") + segment(packet))
        dropped_ids.append(packet.pkt_id)

    uplink.on_drop = on_drop

    def set_up(up: bool) -> None:
        uplink.up = up

    if case == "nack_retx":
        sim.schedule(300, lambda: nic.senders[FlowKey(0, 1)].on_nack(1))
    elif case == "pfc_pause":
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


#: ``(time, tx or drop reason, flow, psn, is_retx, payload_bytes,
#: udp_sport)`` per segment, recorded with packets built at the pacing
#: instant: three backlogged QPs; a NACK at 300 ns whose retransmission of
#: PSN 1 goes out between new segments; a PFC pause from 400 to 1 500 ns;
#: 30 % loss plus the link down from 500 to 800 ns; a flush at 700 ns.
#: Every case carries the 100 B tail of ``0->3#0``.
EXPECTED: dict[str, list] = {
    "backlog": [
        (1120, "tx", "0->1#0", 0, False, 1442, 56364),
        (1240, "tx", "0->2#0", 0, False, 1442, 26271),
        (1360, "tx", "0->3#0", 0, False, 1442, 50697),
        (1480, "tx", "0->1#0", 1, False, 1442, 56364),
        (1600, "tx", "0->2#0", 1, False, 1442, 26271),
        (1720, "tx", "0->3#0", 1, False, 1442, 50697),
        (1840, "tx", "0->1#0", 2, False, 1442, 56364),
        (1960, "tx", "0->2#0", 2, False, 1442, 26271),
        (2080, "tx", "0->3#0", 2, False, 1442, 50697),
        (2200, "tx", "0->1#0", 3, False, 1442, 56364),
        (2320, "tx", "0->2#0", 3, False, 1442, 26271),
        (2332, "tx", "0->3#0", 3, False, 100, 50697),
    ],
    "flush": [
        (700, "flush", "0->1#0", 2, False, 1442, 56364),
        (700, "flush", "0->2#0", 2, False, 1442, 26271),
        (700, "flush", "0->3#0", 2, False, 1442, 50697),
        (700, "flush", "0->1#0", 3, False, 1442, 56364),
        (700, "flush", "0->2#0", 3, False, 1442, 26271),
        (700, "flush", "0->3#0", 3, False, 100, 50697),
        (1120, "tx", "0->1#0", 0, False, 1442, 56364),
        (1240, "tx", "0->2#0", 0, False, 1442, 26271),
        (1360, "tx", "0->3#0", 0, False, 1442, 50697),
        (1480, "tx", "0->1#0", 1, False, 1442, 56364),
        (1600, "tx", "0->2#0", 1, False, 1442, 26271),
        (1720, "tx", "0->3#0", 1, False, 1442, 50697),
    ],
    "loss_and_link_down": [
        (0, "loss", "0->1#0", 0, False, 1442, 56364),
        (360, "loss", "0->1#0", 1, False, 1442, 56364),
        (600, "link_down", "0->3#0", 1, False, 1442, 50697),
        (720, "link_down", "0->1#0", 2, False, 1442, 56364),
        (1200, "loss", "0->2#0", 3, False, 1442, 26271),
        (1240, "tx", "0->2#0", 0, False, 1442, 26271),
        (1320, "loss", "0->3#0", 3, False, 100, 50697),
        (1360, "tx", "0->3#0", 0, False, 1442, 50697),
        (1600, "tx", "0->2#0", 1, False, 1442, 26271),
        (1960, "tx", "0->2#0", 2, False, 1442, 26271),
        (2080, "tx", "0->3#0", 2, False, 1442, 50697),
        (2200, "tx", "0->1#0", 3, False, 1442, 56364),
    ],
    "nack_retx": [
        (1120, "tx", "0->1#0", 0, False, 1442, 56364),
        (1240, "tx", "0->2#0", 0, False, 1442, 26271),
        (1360, "tx", "0->3#0", 0, False, 1442, 50697),
        (1480, "tx", "0->1#0", 1, False, 1442, 56364),
        (1600, "tx", "0->2#0", 1, False, 1442, 26271),
        (1720, "tx", "0->3#0", 1, False, 1442, 50697),
        (1840, "tx", "0->1#0", 2, False, 1442, 56364),
        (1960, "tx", "0->2#0", 2, False, 1442, 26271),
        (2080, "tx", "0->3#0", 2, False, 1442, 50697),
        (2200, "tx", "0->1#0", 1, True, 1442, 56364),
        (2320, "tx", "0->2#0", 3, False, 1442, 26271),
        (2332, "tx", "0->3#0", 3, False, 100, 50697),
        (2452, "tx", "0->1#0", 3, False, 1442, 56364),
    ],
    "pfc_pause": [
        (1120, "tx", "0->1#0", 0, False, 1442, 56364),
        (1240, "tx", "0->2#0", 0, False, 1442, 26271),
        (1360, "tx", "0->3#0", 0, False, 1442, 50697),
        (1480, "tx", "0->1#0", 1, False, 1442, 56364),
        (2620, "tx", "0->2#0", 1, False, 1442, 26271),
        (2740, "tx", "0->3#0", 1, False, 1442, 50697),
        (2860, "tx", "0->1#0", 2, False, 1442, 56364),
        (2980, "tx", "0->2#0", 2, False, 1442, 26271),
        (3100, "tx", "0->3#0", 2, False, 1442, 50697),
        (3220, "tx", "0->1#0", 3, False, 1442, 56364),
        (3340, "tx", "0->2#0", 3, False, 1442, 26271),
        (3352, "tx", "0->3#0", 3, False, 100, 50697),
    ],
}


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
def test_wire_sequence_matches_packets_built_at_pacing(case):
    assert labelled_wire(case) == EXPECTED[case]
