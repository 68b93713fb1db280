"""Model-checking properties of Themis-D x NIC-SR (hypothesis).

An abstract pipeline — deterministic PSN spraying over N per-path FIFOs,
arbitrary cross-path interleavings, a real NIC-SR receiver, Themis-D's
rule core (:class:`~repro.themis.flow_table.FlowEntry`, no switch) —
explored across thousands of arrival orders.  Two theorems the design
relies on:

* **No false compensation**: on a loss-free run, Themis never fabricates
  a NACK, for *any* FIFO-respecting interleaving.
* **Loss recovery coverage**: dropping one packet D that has at least
  one same-path successor always surfaces a NACK for D to the sender —
  either the RNIC's own NACK validated as genuine, or a compensated one.
"""

from hypothesis import given, settings, strategies as st

from repro.cc.base import FixedRate
from repro.harness.metrics import Metrics
from repro.net.packet import FlowKey, PacketType, data_packet
from repro.rnic.config import RnicConfig
from repro.rnic.nic import Rnic
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng
from repro.themis.flow_table import COMPENSATE, FlowEntry

FLOW = FlowKey(0, 1)


class Pipeline:
    """Themis-D's core at the ToR, wired synchronously to a NIC-SR
    receiver whose NACKs ride straight back to it."""

    def __init__(self, n_paths, capacity=256):
        sim = Simulator()
        self.metrics = Metrics(sim)
        self.entry = FlowEntry(FLOW, n_paths, capacity)
        #: ``(epsn, crafted)`` of every NACK surviving toward the sender.
        self.to_sender = []
        self.verdicts = []
        nic = Rnic(sim, 1, config=RnicConfig(), metrics=self.metrics,
                   rng=SimRng(0), cc_factory=lambda f: FixedRate(sim, 1e9))
        pipeline = self

        class Loopback:
            def enqueue(self, packet):
                if packet.ptype is PacketType.NACK:
                    pipeline.on_nack(packet.epsn)
                return True

        nic.uplink = Loopback()
        self.receiver = nic.receiver(FLOW)

    def on_nack(self, epsn):
        verdict = self.entry.classify(epsn, arm=True)[0]
        self.verdicts.append(verdict)
        if verdict != "blocked":
            self.to_sender.append((epsn, False))

    def deliver(self, psn):
        if self.entry.on_last_hop(psn) & COMPENSATE:
            self.to_sender.append((self.entry.blocked_epsn, True))
        self.receiver.on_data(data_packet(FLOW, psn, 100))

    def sender_nack_epsns(self):
        return {epsn for epsn, _ in self.to_sender}

    def crafted(self):
        return [epsn for epsn, crafted in self.to_sender if crafted]


def fifo_interleavings(n_packets, n_paths):
    """Strategy: arrival orders preserving per-path (mod-N) FIFO order.

    Encoded as a sequence of path picks; each pick releases that path's
    next pending PSN.  Invalid (exhausted-path) picks wrap to the next
    non-empty path, keeping every generated order valid.
    """
    return st.lists(st.integers(0, n_paths - 1), min_size=n_packets,
                    max_size=n_packets).map(
        lambda picks: _decode(picks, n_packets, n_paths))


def _decode(picks, n_packets, n_paths):
    pending = {p: [psn for psn in range(n_packets)
                   if psn % n_paths == p] for p in range(n_paths)}
    order = []
    for pick in picks:
        for offset in range(n_paths):
            path = (pick + offset) % n_paths
            if pending[path]:
                order.append(pending[path].pop(0))
                break
    # Release anything left (picks ran out of some paths).
    for path in range(n_paths):
        order.extend(pending[path])
    return order


@settings(max_examples=300, deadline=None)
@given(n_paths=st.sampled_from([2, 4]),
       data=st.data())
def test_lossless_runs_never_compensate(n_paths, data):
    n_packets = data.draw(st.integers(n_paths + 1, 40))
    order = data.draw(fifo_interleavings(n_packets, n_paths))
    pipe = Pipeline(n_paths)
    for psn in order:
        pipe.deliver(psn)
    # Theorem 1: no fabricated NACKs without loss.
    assert pipe.crafted() == []
    # Sanity: the receiver assembled the whole stream.
    assert pipe.receiver.epsn == n_packets
    # Accounting closes: every NACK the NIC sent got one verdict.
    assert len(pipe.verdicts) == pipe.metrics.nacks_generated


@settings(max_examples=300, deadline=None)
@given(n_paths=st.sampled_from([2, 4]),
       data=st.data())
def test_single_loss_surfaces_a_nack_given_late_successor(n_paths, data):
    """Theorem 2, with its true precondition.

    §3.4 can only compensate when a same-path successor of the dropped
    PSN traverses the ToR *after* the blocked NACK (hypothesis found the
    counter-example where the only successor raced ahead — that case is
    what the RTO fallback exists for).  Appending a tail of N+1 fresh
    PSNs guarantees such a successor, after which recovery must be
    NACK-driven: the dropped PSN reaches the sender either as a
    validated RNIC NACK or as a Themis-compensated one.
    """
    n_packets = data.draw(st.integers(2 * n_paths + 2, 40))
    dropped = data.draw(st.integers(0, n_packets - 1))
    order = data.draw(fifo_interleavings(n_packets, n_paths))
    pipe = Pipeline(n_paths)
    for psn in order:
        if psn != dropped:
            pipe.deliver(psn)
    # Late tail: one packet per path, in order, after everything else.
    for psn in range(n_packets, n_packets + n_paths + 1):
        pipe.deliver(psn)
    # Theorem 2: the sender hears about the loss (validated-through or
    # compensated NACK carrying exactly the dropped PSN).
    assert dropped in pipe.sender_nack_epsns()
    # And the receiver is stuck exactly at the dropped PSN.
    assert pipe.receiver.epsn == dropped


@settings(max_examples=200, deadline=None)
@given(n_paths=st.sampled_from([2, 4]),
       data=st.data())
def test_compensated_nacks_name_only_truly_lost_psns(n_paths, data):
    """Safety dual of theorem 2: a compensated NACK is *never* fabricated
    for data that was merely delayed.  With exactly one dropped PSN,
    every Themis-generated NACK must carry exactly that PSN."""
    n_packets = data.draw(st.integers(n_paths + 1, 40))
    dropped = data.draw(st.integers(0, n_packets - 1))
    order = data.draw(fifo_interleavings(n_packets, n_paths))
    pipe = Pipeline(n_paths)
    for psn in order:
        if psn != dropped:
            pipe.deliver(psn)
    for psn in range(n_packets, n_packets + n_paths + 1):
        pipe.deliver(psn)
    assert all(epsn == dropped for epsn in pipe.crafted())
