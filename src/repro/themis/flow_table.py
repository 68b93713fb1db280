"""Themis-D flow table (Fig. 4a).

One entry per cross-rack QP terminating under this ToR.  An entry bundles
the per-QP ring PSN queue (for tPSN identification, §3.3) with the
``BePSN``/``Valid`` pair that drives NACK compensation (§3.4), plus the
path count ``N`` the validation rule (Eq. 3) needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.packet import FlowKey
from repro.themis.ring_queue import PsnRingQueue, psn_bits_for


@dataclass
class FlowEntry:
    """State Themis-D keeps per cross-rack QP."""

    flow: FlowKey
    n_paths: int
    queue: PsnRingQueue
    blocked_epsn: Optional[int] = None   # BePSN
    valid: bool = False                  # compensation armed?

    def same_path(self, psn_a: int, psn_b: int) -> bool:
        """Eq. 3: two PSNs map to the same path iff equal mod N."""
        return psn_a % self.n_paths == psn_b % self.n_paths


class FlowTable:
    """QP -> entry map with lazy creation.

    The paper populates entries by intercepting RNIC connection handshakes
    at the ToR; creating the entry on the QP's first data packet is the
    simulation equivalent (both happen before any NACK can exist).
    """

    def __init__(self) -> None:
        self._entries: dict[FlowKey, FlowEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, flow: FlowKey) -> Optional[FlowEntry]:
        return self._entries.get(flow)

    def get_or_create(self, flow: FlowKey, n_paths: int,
                      queue_capacity: int) -> FlowEntry:
        entry = self._entries.get(flow)
        if entry is None:
            entry = FlowEntry(flow, n_paths, PsnRingQueue(
                queue_capacity, psn_bits_for(queue_capacity, n_paths)))
            self._entries[flow] = entry
        return entry

    def entries(self) -> list[FlowEntry]:
        return list(self._entries.values())
