"""Switch data plane.

A :class:`Switch` forwards packets through three stages:

1. **Middleware chain** — programmable hooks (Themis-S / Themis-D live
   here).  A middleware may consume or block a packet (returning ``False``
   from :meth:`Middleware.on_packet`) or inject new packets by enqueueing
   through the switch.
2. **Route lookup** — ``routes[dst_nic]`` yields the set of equal-cost
   egress ports computed by the topology builder.
3. **Load balancing** — when several candidates exist, middleware gets the
   first chance to pin the egress port (PSN-based spraying); otherwise the
   switch's configured :class:`~repro.switch.lb.LoadBalancer` picks.
   Control packets always use ECMP so ACK/NACK streams stay on one path.

Every egress port carries the switch's shared buffer (drops) and ECN
marker; the admission, occupancy and marking arithmetic is
:class:`~repro.net.port.Port`'s.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Optional, Sequence

from repro.net.node import Device
from repro.net.packet import Packet
from repro.net.port import Port
from repro.switch.buffer import SharedBuffer
from repro.switch.ecn import EcnMarker
from repro.switch.lb import LoadBalancer, ecmp_index
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics


class Middleware:
    """In-switch programmable hook (the role Tofino P4 code plays)."""

    def on_packet(self, switch: "Switch", packet: Packet,
                  in_port: Optional[Port]) -> bool:
        """Inspect/modify a packet at ingress.

        Return ``False`` to stop processing (packet blocked or consumed);
        ``True`` to continue down the pipeline.
        """
        return True

    def select_port(self, switch: "Switch", packet: Packet,
                    candidates: Sequence[Port]) -> Optional[Port]:
        """Override egress selection for data packets; ``None`` defers."""
        return None

    def attach(self, switch: "Switch") -> None:
        """Called when installed on a switch; default records the host.

        Gives middleware access to ``switch.sim``/``switch.name`` for
        emitting trace events outside the packet path (e.g. flushing
        armed state when a fault disables the stage).
        """
        self.switch = switch

    def disable(self) -> None:
        """Administratively bypass this middleware (no-op by default)."""

    def enable(self) -> None:
        """Re-arm after :meth:`disable` (no-op by default)."""


class Switch(Device):
    """An output-queued switch with pluggable LB and middleware."""

    def __init__(self, sim: Simulator, name: str, *,
                 lb: LoadBalancer, buffer: SharedBuffer,
                 ecn_marker: EcnMarker,
                 metrics: "Metrics | None" = None) -> None:
        super().__init__(sim, name)
        self.lb = lb
        self.buffer = buffer
        self.ecn_marker = ecn_marker
        self.metrics = metrics
        self.routes: dict[int, list[Port]] = {}
        #: Set by ``Topology.build_routes``: the routes were computed with
        #: some link down, so a missing route is a partition, not a bug.
        self.routes_degraded = False
        self.down_nics: set[int] = set()
        self.middleware: list[Middleware] = []
        #: Administrative liveness: a rebooting switch blackholes every
        #: arriving packet (with drop accounting) until it comes back.
        self.active = True
        #: Optional PFC state machine (see repro.switch.pfc); installed
        #: by the harness when the fabric runs lossless.
        self.pfc = None
        #: Packet-hop emitter (``recorder.packet_hop``); None = disabled.
        self.rec = None
        #: DROP observability channel (repro.obs); None = disabled.
        self.rec_drop = None
        # Per-switch hash seed/rotation: real ASICs configure their CRC
        # engines per box, which is what makes multi-stage ECMP decorrelate
        # (and what the PathMap construction has to account for).
        self.hash_salt = zlib.crc32(name.encode()) & 0xFFFF
        self.hash_rot = 1 + (zlib.crc32(name[::-1].encode()) % 15)
        # ecmp_index is a pure function of (flow, sport, fan-out) for a
        # fixed salt/rot, so its result can be memoised per switch — an
        # ACK stream hits this dict instead of re-running the hash fold.
        self._ecmp_cache: dict = {}

    # ------------------------------------------------------------------
    def add_port(self, bandwidth_bps: float, delay_ns: int) -> Port:
        port = Port(self.sim, self, bandwidth_bps=bandwidth_bps,
                    delay_ns=delay_ns)
        port.buffer = self.buffer
        port.marker = self.ecn_marker
        if self.metrics is not None:
            port.on_drop = self.metrics.on_drop
        return port

    def add_middleware(self, mw: Middleware) -> None:
        self.middleware.append(mw)
        mw.attach(self)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: Optional[Port]) -> None:
        # forward() is inlined below — this runs once per packet per hop;
        # keep the two bodies in sync.  Cold-path attributes (rec, pfc,
        # middleware) are loaded once; the route lookup is a plain dict
        # subscript (no bound-method call) with the miss handled cold.
        if not self.active:
            return self._discard(packet, "switch_down")
        rec = self.rec
        if rec is not None:
            rec(self.sim.now, self.name, packet)
        pfc = self.pfc
        if pfc is not None:
            pfc.on_ingress(packet, in_port)
        middleware = self.middleware
        if middleware:
            for mw in middleware:
                if not mw.on_packet(self, packet, in_port):
                    if pfc is not None:
                        pfc.on_egress(packet)  # consumed: credit
                    return
        try:
            candidates = self.routes[packet.dst]
        except KeyError:
            return self._no_route(packet)
        if len(candidates) == 1:
            # Downlink hops have exactly one route; skip the selector.
            port = candidates[0]
        elif not candidates:
            return self._no_route(packet)
        elif middleware or packet.is_control:
            port = self._select(packet, candidates)
        else:
            # _select's last line: data on a switch with no middleware.
            port = self.lb.select(self, packet, candidates)
        if not port.enqueue(packet) and pfc is not None:
            pfc.on_egress(packet)  # dropped at admission: credit

    def forward(self, packet: Packet) -> None:
        """Route + LB + enqueue, without the ingress stages.

        Kept as the entry point for middleware that re-injects packets
        (Themis-D retransmits) and for tests; :meth:`receive` inlines
        this body on the per-hop hot path.
        """
        try:
            candidates = self.routes[packet.dst]
        except KeyError:
            return self._no_route(packet)
        if len(candidates) == 1:
            port = candidates[0]
        elif candidates:
            port = self._select(packet, candidates)
        else:
            return self._no_route(packet)
        if not port.enqueue(packet) and self.pfc is not None:
            self.pfc.on_egress(packet)  # dropped at admission: credit

    def _no_route(self, packet: Packet) -> None:
        """Cold path of :meth:`receive`/:meth:`forward`: no egress port.

        After routes were rebuilt around a failure a destination may be
        unreachable from here for a while (a partition); the packet is
        then an accounted drop, like any other loss.  On a fabric whose
        routes were built whole the miss is a wiring error and raises.
        """
        if not self.routes_degraded:
            raise LookupError(f"{self.name}: no route to NIC {packet.dst}")
        self._discard(packet, "no_route")
        if self.pfc is not None:
            self.pfc.on_egress(packet)  # never enqueued: credit

    def _discard(self, packet: Packet, reason: str) -> None:
        """The packet dies at the switch itself rather than at one of its
        ports (``no_route``, or ``switch_down``: a rebooting switch
        blackholes every arrival before the ingress stage).  Accounted
        like a port drop: one DROP record, one ``Metrics.on_drop``."""
        if self.rec_drop is not None:
            self.rec_drop.drop(self.sim.now, self.name, packet, reason)
        if self.metrics is not None:
            self.metrics.on_drop(packet)

    def _select(self, packet: Packet, candidates: list[Port]) -> Port:
        """Egress among several candidates (callers take a single route
        themselves)."""
        if packet.is_control:
            # Control traffic stays on a single hashed path: commodity
            # fabrics never spray the lossless ACK/NACK class.
            key = (packet.flow, packet.udp_sport, len(candidates))
            index = self._ecmp_cache.get(key)
            if index is None:
                index = ecmp_index(packet, len(candidates),
                                   salt=self.hash_salt, rot=self.hash_rot)
                self._ecmp_cache[key] = index
            return candidates[index]
        if self.middleware:
            for mw in self.middleware:
                chosen = mw.select_port(self, packet, candidates)
                if chosen is not None:
                    return chosen
        return self.lb.select(self, packet, candidates)

    # ------------------------------------------------------------------
    # Fault-injection surface (driven by repro.faults)
    # ------------------------------------------------------------------
    def set_active(self, active: bool) -> None:
        """Raise/lower the whole forwarding plane (switch reboot)."""
        self.active = active
        if active:
            # Fresh-boot state: ASIC hash memo does not survive power
            # cycles, and any PFC pauses it asserted are gone.
            self._ecmp_cache.clear()

    def drain_buffers(self, reason: str = "reboot_drain") -> int:
        """Flush every egress queue with full accounting; returns count.

        Each data packet releases its buffer bytes and ingress credit
        (:meth:`Port.flush`), so shared-buffer occupancy and PFC ingress
        credit drain to zero — the post-run ``buffer.used_bytes == 0``
        invariant must survive a mid-run reboot.
        """
        flushed = 0
        for port in self.ports:
            flushed += port.flush(reason)
        return flushed
