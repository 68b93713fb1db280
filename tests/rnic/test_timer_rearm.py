"""Cancel and re-arm a per-QP timer in the same nanosecond.

Every per-QP timer (send pacing, RTO, delayed ACK, DCQCN's increase and
alpha clocks) is armed with ``Simulator.fire`` and a token: cancelling
bumps the token, and the cancelled entry still runs but returns at once.
A cancelled entry and its replacement armed in the same nanosecond fire at
the same time, so only the token tells them apart — a deadline compare
cannot.  Each test arms, cancels, re-arms and runs, and asserts that
exactly one effect lands at the re-armed time.
"""

from repro.cc.base import FixedRate
from repro.cc.dcqcn import ALPHA_G, ALPHA_TIMER_NS, Dcqcn, DcqcnConfig
from repro.harness.metrics import Metrics
from repro.net.packet import FlowKey, PacketType, data_packet
from repro.rnic.config import DELAYED_ACK_NS, RnicConfig
from repro.rnic.nic import Rnic
from repro.sim.engine import US, Simulator
from repro.sim.rng import SimRng

CONFIG = RnicConfig()
LINE = 100e9


class Wire:
    """An uplink that records ``(time, type, psn, epsn)`` per packet."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def enqueue(self, packet):
        self.sent.append((self.sim.now, packet.ptype, packet.psn,
                          packet.epsn))
        return True

    def ready(self, sender):
        """An idle uplink: the QP's segment is pulled and sent at once
        (every message here is one segment, so the QP never stays)."""
        self.enqueue(sender.pull())

    def withdraw(self, sender):
        """Nothing waits: ``ready`` pulls at once."""


def nic_on_wire(nic_id):
    sim = Simulator()
    nic = Rnic(sim, nic_id, config=CONFIG, metrics=Metrics(sim),
               rng=SimRng(nic_id),
               cc_factory=lambda flow: FixedRate(sim, LINE))
    nic.uplink = Wire(sim)
    return sim, nic


def test_sender_send_and_rto_rearmed_after_stop():
    sim, nic = nic_on_wire(0)
    payload = CONFIG.payload_bytes
    flow = nic.post_send(1, payload)      # arms the send and RTO timers
    qp = nic.senders[flow]
    qp.stop()
    qp.post_send(payload)                 # re-arms both at t = 0
    sim.run(until=0)
    assert nic.uplink.sent == [(0, PacketType.DATA, 0, 0)]
    sim.run(until=CONFIG.rto_ns)
    assert qp.stats.timeouts == 1
    assert nic.uplink.sent[-1] == (CONFIG.rto_ns, PacketType.DATA, 0, 0)
    assert sim.pending == 1               # the backed-off RTO, nothing else


def test_receiver_delayed_ack_rearmed_after_stop():
    sim, nic = nic_on_wire(1)
    flow = FlowKey(0, 1)
    nic.receive(data_packet(flow, 0, 1000), None)   # arms the delayed ACK
    nic.receivers[flow].stop()
    nic.receive(data_packet(flow, 1, 1000), None)   # re-arms it at t = 0
    sim.run(until=DELAYED_ACK_NS - 1)
    assert nic.uplink.sent == []
    sim.run(until=DELAYED_ACK_NS)
    assert nic.uplink.sent == [(DELAYED_ACK_NS, PacketType.ACK, 0, 2)]


def test_dcqcn_alpha_timer_rearmed_after_stop():
    sim = Simulator()
    cc = Dcqcn(sim, LINE, DcqcnConfig(ti_ns=1000 * US))
    cc.on_cnp()                 # cut, alpha timer armed
    cc.stop()
    cc.on_cnp()                 # TD-gated: only the alpha timer, re-armed
    alpha = cc.alpha
    sim.run(until=ALPHA_TIMER_NS - 1)
    assert cc.alpha == alpha
    sim.run(until=ALPHA_TIMER_NS)
    assert cc.alpha == alpha * (1 - ALPHA_G)


def test_dcqcn_increase_timer_rearmed_after_stop():
    sim = Simulator()
    cc = Dcqcn(sim, LINE, DcqcnConfig(ti_ns=10 * US))
    cc.on_cnp()                 # cut, increase timer armed
    cc.stop()
    cc.on_timeout()             # drops to the floor, re-arms it at t = 0
    floor, target = cc.rate_bps, cc.rate_target
    sim.run(until=10 * US)
    assert cc._increase_stage == 1
    assert cc.rate_bps == (floor + target) / 2
