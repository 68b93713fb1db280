"""PathMap construction for multi-tier fabrics (§3.2, Fig. 3).

In a 2-tier Clos the source ToR fully determines the path, so Themis-S can
pick the uplink directly.  In 3-tier fabrics the downstream (aggregation)
switches hash independently, so Themis-S instead *rewrites the UDP source
port*: because commodity ECMP hashes are linear in the header words
(Zhang et al., ATC'21 [37]), a precomputed table of port deltas — the
PathMap — deterministically steers a packet onto any of the ``N``
equal-cost paths.

This module reproduces the offline construction against the simulator's
XOR-linear, per-switch-salted hash: :func:`trace_path` replays the exact
forwarding decisions a packet would experience, and :func:`build_pathmap`
searches the 16-bit delta space for ``N`` deltas reaching ``N`` distinct
fabric paths.  Delta 0 is always entry 0, so the base path serves residue
class 0.

Production deployments exploit full hash linearity to make one PathMap
serve every flow; with per-switch salts the map here is built per flow,
which preserves the mechanism (header rewriting at the source ToR only)
at equal switch memory cost.
"""

from __future__ import annotations

from typing import Sequence

from repro.net.packet import FlowKey, data_packet
from repro.net.topology import Topology
from repro.switch.lb import ecmp_index
from repro.switch.switch import Switch


def trace_path(topology: Topology, flow: FlowKey,
               udp_sport: int) -> tuple[str, ...]:
    """Fabric path (sequence of switch names) ECMP gives this header.

    Replays route lookup + hashed selection hop by hop without injecting
    a packet, mirroring :meth:`repro.switch.switch.Switch._select`.
    """
    probe = data_packet(flow, 0, 1, udp_sport=udp_sport)
    switch: Switch = topology.nic_tor[flow.src]
    path: list[str] = []
    for _ in range(16):  # generous hop bound; Clos diameters are tiny
        path.append(switch.name)
        candidates = switch.routes.get(flow.dst)
        if not candidates:
            raise LookupError(f"{switch.name}: no route to {flow.dst}")
        if len(candidates) == 1:
            port = candidates[0]
        else:
            port = candidates[ecmp_index(probe, len(candidates),
                                         salt=switch.hash_salt,
                                         rot=switch.hash_rot)]
        peer = port.peer
        if not isinstance(peer, Switch):
            return tuple(path)  # reached the destination ToR's down port
        switch = peer
    raise RuntimeError("forwarding loop while tracing path")


def build_pathmap(topology: Topology, flow: FlowKey, base_sport: int,
                  n_paths: int) -> list[int]:
    """Search sport deltas realizing ``n_paths`` distinct fabric paths.

    Returns ``deltas`` where ``deltas[r]`` steers residue class ``r``;
    ``deltas[0] == 0`` (the unmodified header keeps the base path).
    Raises :class:`ValueError` if the fabric cannot realize that many
    distinct paths for this flow.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    deltas: list[int] = [0]
    seen = {trace_path(topology, flow, base_sport)}
    for delta in range(1, 1 << 16):
        if len(deltas) == n_paths:
            break
        path = trace_path(topology, flow, base_sport ^ delta)
        if path not in seen:
            seen.add(path)
            deltas.append(delta)
    if len(deltas) < n_paths:
        raise ValueError(
            f"only {len(deltas)} distinct paths reachable via sport "
            f"rewriting for {flow} (wanted {n_paths})")
    return deltas


def apply_pathmap(deltas: Sequence[int], base_sport: int, psn: int) -> int:
    """Header modification of Fig. 3 step 3: sport' = sport xor delta."""
    return base_sport ^ deltas[psn % len(deltas)]
