"""Sender-side queue pair: pacing, reliability reaction, completions.

The sender QP models what commodity RNIC hardware does with an RC QP:

* serializes posted messages into PSN-numbered MTU segments,
* paces them at the congestion-control rate (hardware rate pacing — the
  very property that breaks flowlet LB, §2.3): when its gap ends it waits
  on its uplink's round-robin ring, and the uplink pulls and builds each
  segment as the wire frees (:meth:`SenderQp.pull`),
* on a NACK: retransmits the expected-PSN segment (selective repeat) or
  rewinds (Go-Back-N), *and reports the NACK to congestion control*, which
  is the spurious slow-start coupling Themis defuses,
* falls back to a retransmission timeout when no NACK arrives (the case
  NACK compensation exists to avoid, §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cc.base import CongestionControl
from repro.net.packet import (DATA, DATA_HEADER_BYTES, FlowKey, Packet,
                              _make)
from repro.obs.record import QP as OBS_QP
from repro.rnic.config import RnicConfig
from repro.sim.engine import SEC, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics
    from repro.rnic.nic import Rnic


@dataclass(slots=True)
class _Message:
    end_psn: int
    on_done: Optional[Callable[[], None]]


class SenderQp:
    """One direction of an RC queue pair, sender side.

    Slotted, like every per-flow object (the receiver QP, its congestion
    control and :class:`~repro.harness.metrics.FlowStats`): a flow holds
    only the fields below, with no per-instance dict.
    """

    __slots__ = (
        "sim", "nic", "flow", "cc", "config", "metrics", "udp_sport",
        "gbn", "nack_filter_n_paths", "_messages", "_next_completion",
        "_segment_bytes", "_short_tails", "total_psns", "next_psn",
        "snd_una", "highest_sent", "_retx_queue", "_send_token",
        "_next_allowed_ns", "_rto_token", "_rto_current_ns",
        "_rto_deadline", "stats", "_uplink", "rec", "_rec_loc",
        "_window_sent",
    )

    def __init__(self, sim: Simulator, nic: "Rnic", flow: FlowKey,
                 cc: CongestionControl, config: RnicConfig,
                 metrics: "Metrics", *, udp_sport: int,
                 gbn: bool = False,
                 nack_filter_n_paths: Optional[int] = None) -> None:
        self.sim = sim
        self.nic = nic
        self.flow = flow
        self.cc = cc
        self.config = config
        self.metrics = metrics
        self.udp_sport = udp_sport
        self.gbn = gbn
        #: MPRDMA-style sender-side Eq. 3 filtering: when set (and the
        #: NACK carries its trigger PSN), skew-induced NACKs are ignored
        #: at the sender instead of at the ToR.
        self.nack_filter_n_paths = nack_filter_n_paths

        self._messages: list[_Message] = []
        self._next_completion = 0              # index into _messages
        #: Payload of every segment except a message's last, which may
        #: be shorter: those are kept by PSN.
        self._segment_bytes = config.payload_bytes
        self._short_tails: dict[int, int] = {}

        self.total_psns = 0        # one past the last posted PSN
        self.next_psn = 0          # next never-sent PSN
        self.snd_una = 0           # cumulative: all PSNs below are acked
        self.highest_sent = -1

        #: PSNs queued for retransmission, oldest request first, each at
        #: most once: the one record of what is to be resent.  It never
        #: held more than one PSN on a ledger simulation or a builtin
        #: fault scenario, so membership is a list scan.
        self._retx_queue: list[int] = []

        # Timer tokens (``Simulator.fire`` idiom): each timer is one int,
        # bumped on arm and on cancel, odd while armed.  The callback gets
        # the token it was armed with and returns at once if it is stale.
        # The send token stays odd while the QP waits on its uplink's
        # ring as well as on its pacing timer.
        self._send_token = 0
        self._next_allowed_ns = 0

        self._rto_token = 0
        self._rto_current_ns = config.rto_ns
        # Lazy RTO: the deadline the armed timer must respect.  Re-arming
        # on every ACK only moves this timestamp; the already-armed timer
        # checks it when it fires and sleeps the remainder, so the per-ACK
        # re-arm churn disappears from the calendar (one timer event per
        # RTO span instead of per packet).  Only a backoff reset can move
        # the deadline earlier; that arms a fresh entry (``_arm_rto``).
        self._rto_deadline = 0

        self.stats = metrics.flow_stats(flow)

        # The uplink whose ring this QP waits on, resolved once at QP
        # creation like the recorder channel below: whoever builds the
        # NIC attaches its uplink before posting traffic.
        if nic.uplink is None:
            raise RuntimeError(f"{nic.name} is not attached to a ToR")
        self._uplink = nic.uplink

        # QP-state observability channel (repro.obs); resolved once at QP
        # creation from the NIC's recorder (None = disabled).
        recorder = getattr(nic, "recorder", None)
        self.rec = None if recorder is None else recorder.channel(OBS_QP)
        # Location label only exists when the channel is live — with the
        # category disabled no per-QP string is ever formatted.
        self._rec_loc = ("" if self.rec is None
                         else f"{nic.name}/qp{flow.qp}->nic{flow.dst}")
        # The recorder's time-series sink (None = off).
        self._window_sent = (None if recorder is None
                             else recorder.window_sent)

    # ------------------------------------------------------------------
    # Posting work
    # ------------------------------------------------------------------
    def post_send(self, nbytes: int,
                  on_done: Optional[Callable[[], None]] = None) -> None:
        """Queue a message; PSN numbering continues across messages.
        The flow's first post stamps ``FlowStats.start_ns``."""
        if not self._messages:
            self.stats.start_ns = self.sim.now
        npkts = self.config.packets_for(nbytes)
        self.total_psns += npkts
        self._messages.append(_Message(self.total_psns, on_done))
        tail = nbytes - (npkts - 1) * self._segment_bytes
        if tail != self._segment_bytes:
            self._short_tails[self.total_psns - 1] = tail
        self.stats.bytes_posted += nbytes
        self.metrics.open_messages += 1
        self._arm_rto()
        self._maybe_schedule_send()

    # ------------------------------------------------------------------
    # Pacing / transmission
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self.next_psn - self.snd_una

    def _maybe_schedule_send(self) -> None:
        # When a retransmission is queued, or new PSNs remain and the
        # window has room: join the uplink's ring now if the pacing gap
        # has ended, else arm the pacing timer.  Runs after every ACK,
        # NACK, post and timeout.
        token = self._send_token
        if token & 1:
            return  # on the ring or the pacing timer already
        if not self._retx_queue:
            if (self.next_psn >= self.total_psns
                    or self.next_psn - self.snd_una
                    >= self.config.max_inflight_packets):
                return  # re-kicked when an ACK frees window space
        self._send_token = token = token + 1
        delay = self._next_allowed_ns - self.sim.now
        if delay > 0:
            self.sim.fire(delay, self._send_one, token)
        else:
            self._uplink.ready(self)

    def _send_one(self, token: int) -> None:
        """Pacing timer: the gap has ended, so the QP joins its uplink's
        ring, still armed (the token stays odd until it leaves)."""
        if token != self._send_token:
            return  # cancelled by stop()
        self._uplink.ready(self)

    def pull(self) -> Optional[Packet]:
        """The uplink's turn: build the next segment, a retransmission
        first, else new data, stamping its PSN, the counters and the next
        pacing gap at this instant.  Returns ``None``, off the ring, when
        nothing is left to send.

        The QP goes back on the ring's tail if its next gap ends by the
        time the wire frees; otherwise it waits off the ring on its pacing
        timer.
        """
        retx = self._retx_queue
        while retx:
            psn = retx.pop(0)
            if psn >= self.snd_una:
                break  # else a stale entry, already acked
        else:
            psn = self.next_psn
            if (psn >= self.total_psns
                    or psn - self.snd_una
                    >= self.config.max_inflight_packets):
                self._send_token += 1
                return None
            self.next_psn = psn + 1
        highest = self.highest_sent
        is_retx = psn <= highest
        if psn > highest:
            self.highest_sent = psn
        now = self.sim.now
        flow = self.flow
        payload = self._short_tails.get(psn, self._segment_bytes)
        wire = payload + DATA_HEADER_BYTES
        stats = self.stats
        stats.packets_sent += 1
        if is_retx:
            stats.retransmissions += 1
        window_sent = self._window_sent
        if window_sent is not None:
            window_sent(now, flow, is_retx)
        cc = self.cc
        if cc.bytes_to_increase is not None:
            cc.on_bytes_sent(wire)
        gap_ns = int(wire * 8 * SEC / cc.rate_bps)
        base = self._next_allowed_ns
        if now > base:
            base = now
        base += gap_ns if gap_ns > 1 else 1
        self._next_allowed_ns = base
        if retx or (self.next_psn < self.total_psns
                    and self.next_psn - self.snd_una
                    < self.config.max_inflight_packets):
            # The wire frees once the uplink has serialized this segment
            # (the same arithmetic as ``Port._pump``, which calls us).
            uplink = self._uplink
            tx_ns = int(wire * uplink._ns_per_byte)
            if base <= now + (tx_ns if tx_ns > 0 else 1):
                uplink._data.append(self)
            else:
                self.sim.fire(base - now, self._send_one, self._send_token)
        else:
            self._send_token += 1
        return _make(DATA, flow, psn, 0, payload, self.udp_sport, is_retx)

    # ------------------------------------------------------------------
    # Reliability feedback
    # ------------------------------------------------------------------
    def on_ack(self, epsn: int) -> None:
        if epsn > self.snd_una:
            self._advance_una(epsn)
        if not self._send_token & 1:
            self._maybe_schedule_send()

    def on_nack(self, epsn: int,
                trigger_psn: Optional[int] = None) -> None:
        """NACK: cumulative progress below epsn + retransmit request."""
        self.stats.nacks_received += 1
        self._advance_una(epsn)
        if (self.nack_filter_n_paths is not None
                and trigger_psn is not None
                and trigger_psn % self.nack_filter_n_paths
                != epsn % self.nack_filter_n_paths):
            # Eq. 3 at the sender: different path => skew, not loss.
            self._maybe_schedule_send()
            return
        if self.rec is not None:
            self.rec.qp_state(self.sim.now, self._rec_loc, self.flow,
                              "nack_rewind" if self.gbn else "nack_retx",
                              epsn=epsn, inflight=self.inflight)
        if self.gbn:
            if epsn < self.next_psn:
                self._go_back_n(epsn)
        else:
            self._queue_retx(epsn)
        self.cc.on_nack()
        self._maybe_schedule_send()

    def on_cnp(self) -> None:
        self.stats.cnps_received += 1
        self.cc.on_cnp()

    def force_retransmit(self, psn: int) -> None:
        """Oracle loss notification (Ideal transport): resend one PSN
        without touching congestion control."""
        self._queue_retx(psn)
        self._maybe_schedule_send()

    def _go_back_n(self, psn: int) -> None:
        self.next_psn = psn
        self._retx_queue.clear()

    def _queue_retx(self, psn: int) -> None:
        if psn < self.snd_una or psn >= self.total_psns:
            return
        if psn not in self._retx_queue:
            self._retx_queue.append(psn)

    def _advance_una(self, epsn: int) -> None:
        if epsn <= self.snd_una:
            return
        self.snd_una = min(epsn, self.total_psns)
        retx = self._retx_queue
        while retx and retx[0] < self.snd_una:
            retx.pop(0)
        self._fire_completions()
        self._arm_rto(reset_backoff=True)

    def _fire_completions(self) -> None:
        while self._next_completion < len(self._messages):
            message = self._messages[self._next_completion]
            if message.end_psn > self.snd_una:
                break
            self._next_completion += 1
            self.stats.sender_done_ns = self.sim.now
            if self.rec is not None:
                self.rec.qp_state(self.sim.now, self._rec_loc, self.flow,
                                  "message_complete",
                                  end_psn=message.end_psn)
            if message.on_done is not None:
                message.on_done()
            self.metrics.message_closed()

    @property
    def complete(self) -> bool:
        return self.total_psns > 0 and self.snd_una >= self.total_psns

    # ------------------------------------------------------------------
    # Retransmission timeout
    # ------------------------------------------------------------------
    def _arm_rto(self, reset_backoff: bool = False) -> None:
        if reset_backoff:
            self._rto_current_ns = self.config.rto_ns
        if self.snd_una >= self.total_psns:
            # Flow complete: the pending timer (if any) will see the
            # completed state when it fires and do nothing.
            self._rto_deadline = 0
            return
        deadline = self.sim.now + self._rto_current_ns
        token = self._rto_token
        if not token & 1:
            self._rto_token = token = token + 1
            self.sim.fire(self._rto_current_ns, self._rto_fire, token)
        elif deadline < self._rto_deadline:
            # A backoff reset moved the deadline earlier than the pending
            # entry: arm a fresh one, and the stale entry runs as a no-op.
            self._rto_token = token = token + 2
            self.sim.fire(self._rto_current_ns, self._rto_fire, token)
        self._rto_deadline = deadline

    def _rto_fire(self, token: int) -> None:
        if token != self._rto_token:
            return  # cancelled by stop()
        if self.snd_una >= self.total_psns:
            self._rto_token = token + 1
            return
        remaining = self._rto_deadline - self.sim.now
        if remaining > 0:
            # ACKs pushed the deadline out while this timer was in
            # flight; sleep the remainder, still armed with the same
            # token, instead of having paid a re-arm per ACK.
            self.sim.fire(remaining, self._rto_fire, token)
            return
        self.stats.timeouts += 1
        if self.rec is not None:
            self.rec.qp_state(self.sim.now, self._rec_loc, self.flow,
                              "rto", snd_una=self.snd_una,
                              rto_ns=self._rto_current_ns)
        if self.gbn:
            self._go_back_n(self.snd_una)
        else:
            self._queue_retx(self.snd_una)
        self.cc.on_timeout()
        self._rto_current_ns = min(
            int(self._rto_current_ns * self.config.rto_backoff),
            self.config.rto_max_ns)
        self._rto_deadline = self.sim.now + self._rto_current_ns
        self.sim.fire(self._rto_current_ns, self._rto_fire, token)
        self._maybe_schedule_send()

    def stop(self) -> None:
        """Tear down timers (end of experiment): an armed timer's token
        goes stale, so its pending entry runs as a no-op, and a QP
        waiting on its uplink's ring leaves it."""
        if self._rto_token & 1:
            self._rto_token += 1
        if self._send_token & 1:
            self._send_token += 1
            self._uplink.withdraw(self)
        self.cc.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SenderQp({self.flow}, una={self.snd_una}, "
                f"next={self.next_psn}/{self.total_psns})")
