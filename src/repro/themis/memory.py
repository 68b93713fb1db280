"""Analytical memory-overhead model (§4, Table 1).

Reproduces the paper's switch SRAM budget:

* Themis-S: ``M_PathMap = N_paths * 2 bytes``.
* Themis-D per QP: a 20-byte flow-table entry (13 B QP id + 3 B blocked
  ePSN + 1 B Valid + 3 B queue metadata) plus the ring queue of
  ``ceil(BW * RTT_last * F / MTU)`` truncated PSNs, each as wide as
  :func:`~repro.themis.ring_queue.psn_bits_for` makes it (one byte at
  Table 1's reference values).
* Total: ``M_PathMap + M_QP * N_QP * N_NIC``.

With Table 1's reference values this lands at ~193 KB; see EXPERIMENTS.md
for the comparison against the paper's quoted SRAM fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.themis.ring_queue import psn_bits_for

FLOW_ENTRY_QP_ID_BYTES = 13
FLOW_ENTRY_BEPSN_BYTES = 3
FLOW_ENTRY_VALID_BYTES = 1
FLOW_ENTRY_QUEUE_META_BYTES = 3
FLOW_ENTRY_BYTES = (FLOW_ENTRY_QP_ID_BYTES + FLOW_ENTRY_BEPSN_BYTES
                    + FLOW_ENTRY_VALID_BYTES + FLOW_ENTRY_QUEUE_META_BYTES)
PATHMAP_ENTRY_BYTES = 2
TOFINO_SRAM_BYTES = 64 * 1024 * 1024


def queue_entry_bytes(psn_bits: int) -> int:
    """Bytes of one ring entry holding a ``psn_bits``-wide PSN."""
    return math.ceil(psn_bits / 8)


@dataclass(frozen=True)
class MemoryParams:
    """Symbols of Table 1 with their reference values."""

    n_paths: int = 256
    bandwidth_bps: float = 400e9        # last-hop bandwidth BW
    rtt_last_s: float = 2e-6            # last-hop RTT
    n_nic: int = 16                     # NICs per ToR switch
    n_qp: int = 100                     # cross-rack QPs per RNIC
    mtu_bytes: int = 1500
    expansion_factor: float = 1.5       # F

    def __post_init__(self) -> None:
        if self.expansion_factor <= 1.0:
            raise ValueError("F must exceed 1 (§4)")
        if min(self.n_paths, self.n_nic, self.n_qp, self.mtu_bytes) <= 0:
            raise ValueError("all counts must be positive")


@dataclass(frozen=True)
class MemoryBreakdown:
    """Computed budget, all in bytes."""

    pathmap_bytes: int
    queue_entries: int
    per_qp_bytes: int
    total_bytes: int

    def total_kb(self) -> float:
        return self.total_bytes / 1000.0

    def sram_fraction(self, sram_bytes: int = TOFINO_SRAM_BYTES) -> float:
        return self.total_bytes / sram_bytes


def queue_entries(params: MemoryParams) -> int:
    """N_entries = ceil(BW * RTT_last * F / MTU), BW*RTT in bytes."""
    bdp_bytes = params.bandwidth_bps * params.rtt_last_s / 8.0
    entries = bdp_bytes * params.expansion_factor / params.mtu_bytes
    # Round off the float noise of RTT in seconds first (2e-6 is not
    # exact in binary), so an exactly whole quotient gains no entry.
    return math.ceil(round(entries, 9))


def memory_overhead(params: MemoryParams = MemoryParams()
                    ) -> MemoryBreakdown:
    """Evaluate Eq. 4 of the paper."""
    pathmap = params.n_paths * PATHMAP_ENTRY_BYTES
    entries = queue_entries(params)
    per_qp = FLOW_ENTRY_BYTES + entries * queue_entry_bytes(
        psn_bits_for(entries, params.n_paths))
    total = pathmap + per_qp * params.n_qp * params.n_nic
    return MemoryBreakdown(pathmap_bytes=pathmap, queue_entries=entries,
                           per_qp_bytes=per_qp, total_bytes=total)
