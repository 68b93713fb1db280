"""Themis deployment parameters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.themis import memory


@dataclass(frozen=True)
class ThemisConfig:
    """Knobs for the ToR middleware.

    ``queue_capacity_factor`` is the paper's ``F`` (§4): the per-QP ring
    queue holds ``ceil(BDP_last_hop / MTU * F)`` entries so transient RTT
    fluctuation on the ToR->NIC hop does not evict in-flight PSNs early.

    Two things are not knobs.  The width of a ring entry follows from the
    ring's capacity and the path count (``ring_queue.psn_bits_for``).
    How Themis-S realizes Eq. 1 follows from the topology: ``Network``
    hands a fat tree's ``ThemisSource`` a PathMap provider (Fig. 3) and
    every other fabric's none, so its ToR picks the uplink directly.
    """

    queue_capacity_factor: float = 1.5
    queue_entries_override: int | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity_factor <= 1.0:
            raise ValueError("capacity factor F must exceed 1.0 (§4)")

    def queue_entries(self, last_hop_bandwidth_bps: float,
                      last_hop_rtt_ns: int, mtu_bytes: int) -> int:
        """Ring-queue capacity (§4): Table 1's formula, at least 4."""
        if self.queue_entries_override is not None:
            return self.queue_entries_override
        return max(4, memory.queue_entries(memory.MemoryParams(
            bandwidth_bps=last_hop_bandwidth_bps,
            rtt_last_s=last_hop_rtt_ns / 1e9, mtu_bytes=mtu_bytes,
            expansion_factor=self.queue_capacity_factor)))
