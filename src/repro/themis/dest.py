"""Themis-D's switch adapter at the destination ToR (§3.3–3.4).

Every cross-rack data packet bound for a local NIC, and every NACK from
one, is handed to its QP's :class:`~repro.themis.flow_table.FlowEntry`,
which holds the rules; :class:`ThemisDest` counts, traces and forwards
what they return.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.packet import NACK, FlowKey, Packet, nack_packet
from repro.net.port import Port
from repro.switch.switch import Middleware, Switch
from repro.themis.config import ThemisConfig
from repro.themis.flow_table import CANCEL, COMPENSATE, OVERFLOW, \
    FlowEntry

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
        #: One entry per cross-rack QP.  The paper populates entries by
        #: intercepting RNIC connection handshakes at the ToR; creating
        #: one on the QP's first data packet is the simulation
        #: equivalent (both happen before any NACK can exist).
        self.table: dict[FlowKey, FlowEntry] = {}
        self.enabled = True
        #: NACK-audit observability channel (repro.obs); None = disabled.
        self.rec = None

    def disable(self) -> None:
        """Link-failure fallback (§6): pass every packet through
        untouched, so commodity NACK behaviour returns, as on the
        ECMP-mode source side.  Armed registers are cancelled, and
        traced, first: one left dangling across a path failure is a
        decision the NACK audit could never explain.  The RNIC's own
        timeout still recovers the loss, as in the paper's §6."""
        if self.enabled:
            switch = getattr(self, "switch", None)
            for entry in self.table.values():
                bepsn = entry.disarm()
                if (bepsn is not None and self.rec is not None
                        and switch is not None):
                    self.rec.nack_cancel(switch.sim.now, switch.name,
                                         entry.flow, bepsn,
                                         "path_failure_disable")
        self.enabled = False

    def enable(self) -> None:
        """Re-arm after the fabric heals; stale per-QP state is dropped
        (path counts may have changed)."""
        self.enabled = True
        self.table = {}

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
        if (packet.ptype is NACK
                and not packet.themis_generated
                and packet.flow.src in switch.down_nics
                and packet.flow.dst not in switch.down_nics):
            return self._on_nack_from_nic(switch, packet)
        return True

    # ------------------------------------------------------------------
    def _on_data_to_nic(self, switch: Switch, packet: Packet) -> None:
        flow = packet.flow
        entry = self.table.get(flow)
        if entry is None:
            entry = self.table[flow] = FlowEntry(
                flow, self.n_paths_for(flow), self.queue_capacity_for(flow))
        event = entry.on_last_hop(packet.psn)
        if not event:
            return
        if event & OVERFLOW:
            self.metrics.themis.queue_overflows += 1
        if event & CANCEL and self.rec is not None:
            self.rec.nack_cancel(switch.sim.now, switch.name, flow,
                                 entry.blocked_epsn, "bepsn_arrived")
        elif event & COMPENSATE:
            # Craft the NACK the RNIC can no longer send.
            bepsn = entry.blocked_epsn
            self.metrics.themis.nacks_compensated += 1
            if self.rec is not None:
                self.rec.nack_compensate(switch.sim.now, switch.name, flow,
                                         bepsn, packet.psn)
            nack = nack_packet(flow, bepsn)
            nack.themis_generated = True
            switch.forward(nack)

    def _on_nack_from_nic(self, switch: Switch, packet: Packet) -> bool:
        if not self.validate:
            return True
        data_flow = packet.flow.reversed()
        entry = self.table.get(data_flow)
        themis = self.metrics.themis
        rec = self.rec
        if entry is None:
            # No state (e.g. NACK before any data was seen) — be
            # conservative and behave like a vanilla switch.
            themis.tpsn_not_found += 1
            themis.nacks_forwarded += 1
            if rec is not None:
                rec.nack_classify(switch.sim.now, switch.name, data_flow,
                                  packet.epsn, "no_state")
            return True
        verdict, tpsn, armed, guard, superseded = entry.classify(
            packet.epsn, self.compensate)
        if verdict == "blocked":
            themis.nacks_blocked += 1
        else:
            if verdict == "no_tpsn":
                themis.tpsn_not_found += 1
            themis.nacks_forwarded += 1
        if rec is not None:
            now = switch.sim.now
            if superseded is not None:
                rec.nack_cancel(now, switch.name, data_flow, superseded,
                                "superseded")
            rec.nack_classify(now, switch.name, data_flow, packet.epsn,
                              verdict, tpsn=tpsn, n_paths=entry.n_paths,
                              ring_len=len(entry.queue), armed=armed,
                              guard=guard)
        return verdict != "blocked"
