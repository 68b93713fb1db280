"""Shared switch buffer accounting.

Commodity switch ASICs pool packet memory across ports (e.g. the 64 MB
SRAM the paper cites for Tofino-class switches).  :class:`SharedBuffer`
holds the pool's numbers; every egress :class:`~repro.net.port.Port` of
the switch reads and updates them in ``enqueue`` / ``_pump`` / ``flush``:
a data packet is admitted only if the shared pool has room.  Control
packets bypass the buffer entirely (they ride the lossless high-priority
class).
"""

from __future__ import annotations


class SharedBuffer:
    """Byte-accurate shared-pool occupancy."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0
        self.peak_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedBuffer({self.used_bytes}/{self.capacity_bytes}B, "
                f"peak={self.peak_bytes})")
