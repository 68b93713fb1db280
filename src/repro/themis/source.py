"""Themis-S: PSN-based packet spraying at the source ToR (§3.2).

For every cross-rack data packet entering the fabric from a locally
attached NIC, Themis-S deterministically assigns the path

    path_i = (PSN_i mod N + P_base) mod N                         (Eq. 1)

where ``P_base`` is the index plain ECMP would have chosen for the flow
(so un-sprayed and sprayed deployments share the same base path layout).

Two realizations, chosen by construction:

* direct (no ``pathmap_provider``) — 2-tier Clos: the ToR picks uplink
  ``path_i`` directly.
* PathMap (a ``pathmap_provider``) — multi-tier: the packet's UDP source
  port is rewritten through the flow's PathMap so every downstream
  linear-ECMP hop becomes a deterministic function of ``PSN mod N``
  (Fig. 3).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.net.packet import FlowKey, Packet
from repro.net.port import Port
from repro.switch.lb import ecmp_index
from repro.switch.switch import Middleware, Switch
from repro.themis.config import ThemisConfig

#: PathMap realization: resolves a flow + base sport to its delta table.
PathmapProvider = Callable[[FlowKey, int], Sequence[int]]


class ThemisSource(Middleware):
    """Source-ToR middleware enforcing PSN-based spraying."""

    def __init__(self, config: ThemisConfig,
                 pathmap_provider: Optional[PathmapProvider] = None) -> None:
        self.config = config
        self.pathmap_provider = pathmap_provider
        self.enabled = True
        self._base_cache: dict[FlowKey, int] = {}
        self._pathmaps: dict[FlowKey, Sequence[int]] = {}

    def disable(self) -> None:
        """Link-failure fallback (§6): stop spraying; the switch's
        configured LB (ECMP in themis deployments) takes over."""
        self.enabled = False

    def enable(self) -> None:
        """Re-arm after the fabric heals.  Base-path and PathMap caches
        are dropped: route candidate sets may have changed."""
        self.enabled = True
        self._base_cache.clear()
        self._pathmaps.clear()

    # ------------------------------------------------------------------
    def _is_spray_candidate(self, switch: Switch, packet: Packet) -> bool:
        """Cross-rack data entering the fabric at this ToR?"""
        return (packet.is_data
                and packet.flow.src in switch.down_nics
                and packet.flow.dst not in switch.down_nics)

    # ------------------------------------------------------------------
    # PathMap realization: header rewrite at ingress
    # ------------------------------------------------------------------
    def on_packet(self, switch: Switch, packet: Packet,
                  in_port: Optional[Port]) -> bool:
        if (self.enabled and self.pathmap_provider is not None
                and self._is_spray_candidate(switch, packet)):
            pathmap = self._pathmaps.get(packet.flow)
            if pathmap is None:
                pathmap = self.pathmap_provider(packet.flow,
                                                packet.udp_sport)
                self._pathmaps[packet.flow] = pathmap
            residue = packet.psn % len(pathmap)
            packet.udp_sport ^= pathmap[residue]
            packet.path_index = residue
        return True

    # ------------------------------------------------------------------
    # direct realization: uplink selection override
    # ------------------------------------------------------------------
    def select_port(self, switch: Switch, packet: Packet,
                    candidates: Sequence[Port]) -> Optional[Port]:
        if not self.enabled:
            return None
        if self.pathmap_provider is not None:
            return None  # rewritten header steers downstream ECMP instead
        if not self._is_spray_candidate(switch, packet):
            return None
        n = len(candidates)
        base = self._base_cache.get(packet.flow)
        if base is None:
            # P_base: the path ECMP would give this flow's (stable) header.
            base = ecmp_index(packet, n, salt=switch.hash_salt,
                              rot=switch.hash_rot)
            self._base_cache[packet.flow] = base
        index = (packet.psn % n + base) % n
        packet.path_index = index
        return candidates[index]
