"""Themis-D: NACK validation and compensation at the destination ToR.

Data path (§3.3): every cross-rack data packet heading to a local NIC has
its PSN pushed into the flow's ring PSN queue just before it leaves the
ToR, so the queue's FIFO order equals the NIC's arrival order.

NACK path (§3.3): a NACK from a local NIC carries only the receiver's
ePSN.  Themis-D recovers the trigger PSN (tPSN) by dequeuing the ring
until the first PSN greater than ePSN, then applies Eq. 3::

    valid  <=>  tPSN mod N == ePSN mod N

Valid NACKs (the expected packet's path also delivered a later PSN — the
expected packet is genuinely lost) are forwarded; invalid NACKs (skew
between different paths) are blocked.

Compensation (§3.4): blocking arms ``(BePSN, Valid)``.  If a later data
packet proves the blocked ePSN lost (same-path PSN above it arrives),
Themis-D crafts the NACK the RNIC can no longer produce; if the BePSN
packet itself shows up, compensation is disarmed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import FlowKey, Packet, PacketType, nack_packet
from repro.net.port import Port
from repro.switch.switch import Middleware, Switch
from repro.themis.config import ThemisConfig
from repro.themis.flow_table import FlowEntry, FlowTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics


class ThemisDest(Middleware):
    """Destination-ToR middleware: block invalid NACKs, compensate."""

    def __init__(self, config: ThemisConfig, metrics: "Metrics", *,
                 n_paths_for: Callable[[FlowKey], int],
                 queue_capacity_for: Callable[[FlowKey], int],
                 validate: bool = True, compensate: bool = True) -> None:
        self.config = config
        self.metrics = metrics
        #: Production Themis-D runs both halves; the ``themis_noval`` /
        #: ``themis_nocomp`` ablation schemes switch them off.
        self.validate = validate
        self.compensate = compensate
        self.n_paths_for = n_paths_for
        self.queue_capacity_for = queue_capacity_for
        self.table = FlowTable()
        self.enabled = True
        #: NACK-audit observability channel (repro.obs); None = disabled.
        self.rec = None

    def disable(self) -> None:
        """Link-failure fallback (§6): pass every packet through
        untouched — commodity NACK behaviour returns, matching the
        ECMP-mode source side.

        Armed compensation registers are explicitly cancelled (and
        traced) before the stage goes dark: a ``(BePSN, Valid)`` pair
        left dangling across a path failure would otherwise be silent
        state corruption — the audit could never explain what became of
        the armed decision.  The RNIC's own timeout still recovers the
        loss, exactly as in the paper's §6 fallback.
        """
        if self.enabled:
            self._flush_armed("path_failure_disable")
        self.enabled = False

    def _flush_armed(self, reason: str) -> None:
        """Cancel every armed compensation register, with trace events."""
        switch = getattr(self, "switch", None)
        for entry in self.table.entries():
            if not entry.valid:
                continue
            entry.valid = False
            if self.rec is not None and switch is not None:
                self.rec.nack_cancel(switch.sim.now, switch.name,
                                     entry.flow, entry.blocked_epsn,
                                     reason)

    def enable(self) -> None:
        """Re-arm after the fabric heals; stale per-QP state is dropped
        (path counts may have changed)."""
        self.enabled = True
        self.table = FlowTable()

    # ------------------------------------------------------------------
    def on_packet(self, switch: Switch, packet: Packet,
                  in_port: Optional[Port]) -> bool:
        if not self.enabled:
            return True
        if (packet.is_data
                and packet.flow.dst in switch.down_nics
                and packet.flow.src not in switch.down_nics):
            self._on_data_to_nic(switch, packet)
            return True
        if (packet.ptype is PacketType.NACK
                and not packet.themis_generated
                and packet.flow.src in switch.down_nics
                and packet.flow.dst not in switch.down_nics):
            return self._on_nack_from_nic(switch, packet)
        return True

    # ------------------------------------------------------------------
    # Data path: PSN caching + compensation checks
    # ------------------------------------------------------------------
    def _entry_for(self, flow: FlowKey) -> FlowEntry:
        entry = self.table.get(flow)
        if entry is not None:
            return entry
        return self.table.get_or_create(flow, self.n_paths_for(flow),
                                        self.queue_capacity_for(flow))

    def _on_data_to_nic(self, switch: Switch, packet: Packet) -> None:
        entry = self._entry_for(packet.flow)
        if self.compensate and entry.valid:
            self._compensation_check(switch, entry, packet.psn)
        if entry.queue.enqueue(packet.psn):
            self.metrics.themis.queue_overflows += 1

    def _compensation_check(self, switch: Switch, entry: FlowEntry,
                            psn: int) -> None:
        bepsn = entry.blocked_epsn
        assert bepsn is not None
        if psn == bepsn:
            # The "lost" packet arrived after all: nothing to compensate.
            entry.valid = False
            if self.rec is not None:
                self.rec.nack_cancel(switch.sim.now, switch.name,
                                     entry.flow, bepsn, "bepsn_arrived")
            return
        if psn > bepsn and entry.same_path(psn, bepsn):
            # A later packet on the *same* path overtook the blocked ePSN:
            # it is genuinely lost.  Craft the NACK the RNIC cannot send.
            entry.valid = False
            self.metrics.themis.nacks_compensated += 1
            if self.rec is not None:
                self.rec.nack_compensate(switch.sim.now, switch.name,
                                         entry.flow, bepsn, psn)
            nack = nack_packet(entry.flow, bepsn)
            nack.themis_generated = True
            switch.forward(nack)

    # ------------------------------------------------------------------
    # NACK path: tPSN identification + Eq. 3 validation
    # ------------------------------------------------------------------
    def _on_nack_from_nic(self, switch: Switch, packet: Packet) -> bool:
        if not self.validate:
            return True
        data_flow = packet.flow.reversed()
        entry = self.table.get(data_flow)
        rec = self.rec
        if entry is None:
            # No state (e.g. NACK before any data was seen) — be
            # conservative and behave like a vanilla switch.
            self.metrics.themis.tpsn_not_found += 1
            self.metrics.themis.nacks_forwarded += 1
            if rec is not None:
                rec.nack_classify(switch.sim.now, switch.name, data_flow,
                                  packet.epsn, "no_state")
            return True
        tpsn = entry.queue.find_tpsn(packet.epsn)
        if tpsn is None:
            self.metrics.themis.tpsn_not_found += 1
            self.metrics.themis.nacks_forwarded += 1
            if rec is not None:
                rec.nack_classify(switch.sim.now, switch.name, data_flow,
                                  packet.epsn, "no_tpsn",
                                  n_paths=entry.n_paths,
                                  ring_len=len(entry.queue))
            return True
        # Eq. 3 in the (possibly truncated) PSN space: psn_bits_for makes
        # 2^bits a multiple of N, so the residue is exact.
        epsn_trunc = entry.queue.truncate(packet.epsn)
        if entry.same_path(tpsn, epsn_trunc):
            self.metrics.themis.nacks_forwarded += 1
            if rec is not None:
                rec.nack_classify(switch.sim.now, switch.name, data_flow,
                                  packet.epsn, "forwarded", tpsn=tpsn,
                                  n_paths=entry.n_paths,
                                  ring_len=len(entry.queue))
            return True
        self.metrics.themis.nacks_blocked += 1
        armed = False
        guard = None
        if self.compensate:
            # Arming guard: the NACK is one last-hop RTT stale.  If the
            # expected packet already traversed the ToR it sits in the
            # ring *behind* the trigger (the trigger always passes the
            # ToR first, and the last-hop FIFO preserves order), so it is
            # provably not lost and compensation would only ever fire
            # spuriously.  Arm only when the ePSN is absent.
            if entry.queue.contains(packet.epsn):
                guard = "epsn_in_ring"
            else:
                if rec is not None and entry.valid \
                        and entry.blocked_epsn != packet.epsn:
                    # One (BePSN, Valid) register per flow: a new arming
                    # quietly replaces the previous one.
                    rec.nack_cancel(switch.sim.now, switch.name,
                                    data_flow, entry.blocked_epsn,
                                    "superseded")
                entry.blocked_epsn = packet.epsn
                entry.valid = True
                armed = True
        else:
            guard = "compensation_disabled"
        if rec is not None:
            rec.nack_classify(switch.sim.now, switch.name, data_flow,
                              packet.epsn, "blocked", tpsn=tpsn,
                              n_paths=entry.n_paths,
                              ring_len=len(entry.queue), armed=armed,
                              guard=guard)
        return False
