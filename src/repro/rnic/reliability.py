"""Receiver-side reliable transports.

Three generations and one proposal are modelled (§1, §2.2):

* :class:`NicSrReceiver` — current-generation commodity RNICs (CX-6/7,
  BF3): out-of-order reception into a bitmap + selective repeat.  The
  crucial, faithful quirk: *any* packet with PSN > ePSN is blindly treated
  as evidence of loss and triggers a NACK carrying only the ePSN, at most
  one NACK per ePSN value.
* :class:`GbnReceiver` — previous generation (CX-4/5): OOO packets are
  dropped at the receiver and the sender goes back to the expected PSN.
* :class:`IdealReceiver` — oracle baseline for Fig. 1d: accepts OOO and
  never NACKs; real losses are repaired by an oracle notification straight
  to the sender (wired up by the harness), so it isolates the cost of
  spurious retransmissions and slow starts.
* :class:`MpRdmaReceiver` — the §2.3 what-if: selective repeat whose NACK
  also carries the trigger PSN.

The three OOO-tolerant receivers are one selective-repeat machine
(:class:`SrReceiver`) and differ only in their ``nack_policy``.  All
receivers share the handling of the expected PSN (one frame:
:meth:`ReceiverQp.on_data`), cumulative-ACK emission with coalescing,
per-QP CNP generation for DCQCN, and message-completion bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import ACK, CNP, NACK, FlowKey, Packet, _make
from repro.obs.record import NACK as OBS_NACK
from repro.rnic.bitmap import OooTracker
from repro.rnic.config import (ACK_COALESCE_PACKETS, CNP_INTERVAL_NS,
                               DELAYED_ACK_NS, RnicConfig)
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics
    from repro.rnic.nic import Rnic


class ReceiverQp:
    """Common receiver-side state: ACK/CNP emission and completions.

    Slotted, and so is every subclass: a receiver holds only these
    fields (``nack_policy`` is per class).
    """

    __slots__ = (
        "sim", "nic", "flow", "_ctrl_flow", "config", "metrics", "stats",
        "epsn", "nack_sent_for_epsn", "tracker", "rec_nack", "_expected",
        "_posted_psns", "_unacked_advance", "_ack_token", "_last_cnp_ns",
    )

    #: What an out-of-order arrival makes this receiver send: ``None``
    #: (nothing), ``"epsn"`` (a NACK carrying only the expected PSN) or
    #: ``"epsn+trigger"`` (the NACK also names the arrival that caused it).
    nack_policy: Optional[str] = "epsn"

    def __init__(self, sim: Simulator, nic: "Rnic", flow: FlowKey,
                 config: RnicConfig, metrics: "Metrics") -> None:
        self.sim = sim
        self.nic = nic
        self.flow = flow              # data direction (sender -> us)
        # Control direction, computed once: every ACK/NACK/CNP carries
        # this key, so emission skips the per-packet reversal.
        self._ctrl_flow = flow.reversed()
        self.config = config
        self.metrics = metrics
        self.stats = metrics.flow_stats(flow)

        self.epsn = 0
        self.nack_sent_for_epsn = False
        #: PSNs held above the ePSN, from the first out-of-order arrival
        #: on (most flows never see one); a receiver that keeps none
        #: (Go-Back-N) leaves it ``None``.
        self.tracker: Optional[OooTracker] = None

        # NACK observability channel (repro.obs); resolved once at QP
        # creation from the NIC's recorder (None = disabled).
        recorder = getattr(nic, "recorder", None)
        self.rec_nack = None if recorder is None \
            else recorder.channel(OBS_NACK)

        #: Posted receives not yet complete, oldest first: a ring QP
        #: holds every step's receive from the collective's start.
        self._expected: list[tuple[int, Optional[Callable[[], None]]]] \
            = []                      # (end_psn, callback)
        self._posted_psns = 0

        self._unacked_advance = 0
        #: Delayed-ACK timer token (``Simulator.fire`` idiom, as in
        #: ``SenderQp``): bumped on arm and on cancel, odd while armed.
        self._ack_token = 0
        self._last_cnp_ns: Optional[int] = None

    # ------------------------------------------------------------------
    # Receive-side completions
    # ------------------------------------------------------------------
    def expect_message(self, nbytes: int,
                       on_done: Optional[Callable[[], None]] = None
                       ) -> None:
        """Pre-post a receive: fire ``on_done`` once the message's PSN
        range is fully (in-order-completable) received."""
        npkts = self.config.packets_for(nbytes)
        self._posted_psns += npkts
        self._expected.append((self._posted_psns, on_done))
        self.metrics.open_messages += 1
        self._check_completions()

    def _check_completions(self) -> None:
        while self._expected and self._expected[0][0] <= self.epsn:
            _, on_done = self._expected.pop(0)
            self.stats.receiver_done_ns = self.sim.now
            if on_done is not None:
                on_done()
            self.metrics.message_closed()

    # ------------------------------------------------------------------
    # Packet entry point
    # ------------------------------------------------------------------
    def on_data(self, packet: Packet) -> None:
        if packet.ecn_marked:
            self._maybe_send_cnp()
        psn = packet.psn
        if psn != self.epsn:
            self._handle_unexpected(packet)
            return
        # The expected PSN, the same on every receiver: deliver, advance
        # over whatever was held above it, acknowledge, complete.
        metrics = self.metrics
        watched = metrics.watched
        if watched and self.flow in watched:
            metrics.on_delivered(self.flow, packet)
        tracker = self.tracker
        epsn = tracker.advance(psn + 1) if tracker else psn + 1
        self.epsn = epsn
        self.nack_sent_for_epsn = False
        self._unacked_advance += epsn - psn
        if self._unacked_advance >= ACK_COALESCE_PACKETS:
            self._send_ack()
        elif not self._ack_token & 1:
            self._schedule_delayed_ack()
        expected = self._expected
        if expected and expected[0][0] <= epsn:
            self._check_completions()

    def _handle_unexpected(self, packet: Packet) -> None:
        """A data packet whose PSN is not the expected one: a duplicate
        (below it) or an out-of-order arrival (above it)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # ACK emission (coalesced cumulative ACKs)
    # ------------------------------------------------------------------
    def _schedule_delayed_ack(self) -> None:
        token = self._ack_token
        if not token & 1:
            self._ack_token = token = token + 1
            self.sim.fire(DELAYED_ACK_NS, self._delayed_ack_fire, token)

    def _delayed_ack_fire(self, token: int) -> None:
        if token == self._ack_token:  # else an ACK or stop() came since
            self._send_ack()

    def _send_ack(self) -> None:
        if self._ack_token & 1:
            self._ack_token += 1      # disarm the delayed ACK
        self._unacked_advance = 0
        metrics = self.metrics
        metrics.acks_generated += 1
        if metrics.ack_listeners:
            for listener in metrics.ack_listeners:
                listener(self.flow, self.epsn)
        # _make with the precomputed control flow == ack_packet(flow, ...)
        # minus the per-ACK FlowKey reversal.
        self.nic.uplink.enqueue(_make(ACK, self._ctrl_flow, 0, self.epsn))

    def _send_nack(self, observed_psn: int) -> None:
        """Emit a NACK for the current ePSN, caused by the out-of-order
        arrival *observed_psn*.

        Commodity RNICs do not include the trigger PSN (§2.2), so there
        it is telemetry only; under the MPRDMA-style ``"epsn+trigger"``
        policy it is stamped into the packet's ``psn`` field.
        """
        self.metrics.nacks_generated += 1
        if self.rec_nack is not None:
            self.rec_nack.nack_emit(self.sim.now, self.nic.name, self.flow,
                                    self.epsn, observed_psn)
        nack = _make(NACK, self._ctrl_flow, 0, self.epsn)
        if self.nack_policy == "epsn+trigger":
            nack.psn = observed_psn
        self.nic.uplink.enqueue(nack)

    def _maybe_send_cnp(self) -> None:
        now = self.sim.now
        if (self._last_cnp_ns is not None
                and now - self._last_cnp_ns < CNP_INTERVAL_NS):
            return
        self._last_cnp_ns = now
        self.metrics.cnps_generated += 1
        self.nic.uplink.enqueue(_make(CNP, self._ctrl_flow))

    def stop(self) -> None:
        if self._ack_token & 1:
            self._ack_token += 1


class SrReceiver(ReceiverQp):
    """Selective repeat: out-of-order arrivals are kept in a tracker and
    answered according to the subclass's ``nack_policy``."""

    __slots__ = ()

    def _handle_unexpected(self, packet: Packet) -> None:
        psn = packet.psn
        tracker = self.tracker
        if psn < self.epsn or (tracker is not None and psn in tracker):
            # Duplicate: the payload was already received — every one of
            # these corresponds to a wasted (spurious or repeated)
            # retransmission arriving.
            self.stats.receiver_duplicates += 1
            self._schedule_delayed_ack()
            return
        # PSN > ePSN: out-of-order arrival.  A NACKing receiver cannot
        # tell multi-path skew from loss, assumes loss, and NACKs the
        # expected PSN — but only once per ePSN value.
        self.stats.receiver_ooo += 1
        metrics = self.metrics
        watched = metrics.watched
        if watched and self.flow in watched:
            metrics.on_delivered(self.flow, packet)
        if tracker is None:
            self.tracker = tracker = OooTracker()
        tracker.add(psn)
        if self.nack_policy is not None and not self.nack_sent_for_epsn:
            self.nack_sent_for_epsn = True
            self._send_nack(psn)


class NicSrReceiver(SrReceiver):
    """Selective-repeat receiver of current commodity RNICs (§2.2): the
    NACK carries only the ePSN."""

    __slots__ = ()


class GbnReceiver(ReceiverQp):
    """Go-Back-N receiver of previous-generation RNICs (CX-4/5): every
    out-of-order arrival (``FlowStats.receiver_ooo``) is dropped."""

    __slots__ = ()

    def _handle_unexpected(self, packet: Packet) -> None:
        if packet.psn < self.epsn:
            self.stats.receiver_duplicates += 1
            self._schedule_delayed_ack()
            return
        # OOO: dropped outright by this NIC generation.
        self.stats.receiver_ooo += 1
        if not self.nack_sent_for_epsn:
            self.nack_sent_for_epsn = True
            self._send_nack(packet.psn)


class IdealReceiver(SrReceiver):
    """Oracle transport: OOO-tolerant, never NACKs, loss repaired out of
    band (the harness wires drops straight to the sender)."""

    __slots__ = ()

    nack_policy = None


class MpRdmaReceiver(SrReceiver):
    """MPRDMA-style transport: NACKs carry the trigger PSN (§2.3).

    Multi-path RDMA transport proposals fix the ambiguity at the NIC:
    the NACK tells the sender *which* out-of-order packet triggered it,
    so the sender (which knows the deterministic spraying policy) can
    apply Eq. 3 itself and ignore skew-induced NACKs — no switch help
    needed.  The paper's point is that no off-the-shelf RNIC implements
    this; it lives here as the what-if comparator.
    """

    __slots__ = ()

    nack_policy = "epsn+trigger"


RECEIVER_CLASSES = {
    "nic_sr": NicSrReceiver,
    "gbn": GbnReceiver,
    "ideal": IdealReceiver,
    "mp_rdma": MpRdmaReceiver,
}
