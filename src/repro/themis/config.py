"""Themis deployment parameters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ThemisConfig:
    """Knobs for the ToR middleware.

    ``queue_capacity_factor`` is the paper's ``F`` (§4): the per-QP ring
    queue holds ``ceil(BDP_last_hop / MTU * F)`` entries so transient RTT
    fluctuation on the ToR->NIC hop does not evict in-flight PSNs early.

    ``enable_validation`` / ``enable_compensation`` exist for the ablation
    benchmarks — production Themis runs with both on.

    The width of a ring entry is not a knob: it follows from the ring's
    capacity and the path count (``ring_queue.psn_bits_for``).

    ``spray_mode`` selects how Themis-S realizes Eq. 1: ``"direct"`` picks
    the ToR uplink index directly (2-tier Clos, §3.2), ``"pathmap"``
    rewrites the UDP source port through a PathMap so downstream linear
    ECMP becomes deterministic (3-tier, Fig. 3).
    """

    queue_capacity_factor: float = 1.5
    queue_entries_override: int | None = None
    enable_validation: bool = True
    enable_compensation: bool = True
    spray_mode: str = "direct"

    def __post_init__(self) -> None:
        if self.queue_capacity_factor <= 1.0:
            raise ValueError("capacity factor F must exceed 1.0 (§4)")
        if self.spray_mode not in ("direct", "pathmap"):
            raise ValueError("spray_mode must be 'direct' or 'pathmap'")

    def queue_entries(self, last_hop_bandwidth_bps: float,
                      last_hop_rtt_ns: int, mtu_bytes: int) -> int:
        """Ring-queue capacity from the last-hop BDP (§4)."""
        if self.queue_entries_override is not None:
            return self.queue_entries_override
        bdp_bytes = last_hop_bandwidth_bps * last_hop_rtt_ns / 1e9 / 8.0
        entries = int(-(-bdp_bytes * self.queue_capacity_factor
                        // mtu_bytes))
        return max(4, entries)
