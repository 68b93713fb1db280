"""Ring-based PSN queue (§3.3).

Themis-D caches the PSN of every in-flight packet on the ToR->NIC hop in a
fixed-capacity FIFO ring, one per QP.  Entries store *truncated* PSNs
(1 byte in the paper's §4 memory budget), so "larger than ePSN" uses
serial-number arithmetic within the truncated space — sound only while
the ring holds fewer than ``2^(bits-1)`` entries (:func:`psn_bits_for`).

When a NACK carrying ``ePSN`` arrives, :meth:`find_tpsn` dequeues entries
in arrival order until the first PSN greater than ``ePSN``; that PSN is the
out-of-order packet that triggered the NACK (the RNIC emits at most one
NACK per ePSN, so the *first* newer-than-expected arrival is the trigger).

The model is the bounded FIFO, a ``deque(maxlen=capacity)``; the head and
tail pointers into a slot array are how the switch hardware realises one
and have no counterpart here.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


def psn_bits_for(capacity: int, n_paths: int) -> int:
    """Entry width of a ``capacity``-entry ring over ``n_paths`` paths:
    the smallest ``bits >= 8`` (the paper's 1-byte entry) whose serial
    window ``2^(bits-1)`` exceeds the capacity and whose space ``2^bits``
    N divides (Eq. 3's residue survives truncation); else 32, full PSNs.
    """
    for bits in range(8, 32):
        if (1 << (bits - 1)) > capacity and (1 << bits) % n_paths == 0:
            return bits
    return 32


class PsnRingQueue:
    """Fixed-capacity FIFO of truncated PSNs; the oldest entry gives way."""

    def __init__(self, capacity: int, psn_bits: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if capacity >= 1 << (psn_bits - 1):
            raise ValueError(f"{capacity} entries alias {psn_bits}-bit PSNs")
        self.capacity = int(capacity)
        self.psn_bits = psn_bits
        self._mask = (1 << psn_bits) - 1
        self._half = 1 << (psn_bits - 1)
        self._entries: deque[int] = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def truncate(self, psn: int) -> int:
        return psn & self._mask

    def _greater(self, a: int, b: int) -> bool:
        """Serial-number compare in the truncated space: a > b?"""
        return 0 < ((a - b) & self._mask) < self._half

    # ------------------------------------------------------------------
    def enqueue(self, psn: int) -> bool:
        """Record a PSN leaving toward the NIC; ``True`` when the oldest
        entry gave way to it.

        On overflow the oldest entry is evicted (the hardware ring simply
        wraps); §4 sizes the queue so this only happens when RTT spikes
        beyond the provisioning factor F.
        """
        overflow = len(self._entries) == self.capacity
        self._entries.append(psn & self._mask)
        return overflow

    def find_tpsn(self, epsn: int) -> Optional[int]:
        """Dequeue until the first PSN larger than ``epsn`` (the tPSN).

        Returns the truncated tPSN, or ``None`` if the queue drained
        without finding one (queue undersized or NACK raced the data).
        The matching entry itself is consumed, exactly like the switch
        example in Fig. 4b where both the scanned and matched entries
        leave the queue.
        """
        target = self.truncate(epsn)
        entries = self._entries
        while entries:
            candidate = entries.popleft()
            if self._greater(candidate, target):
                return candidate
        return None

    def contains(self, psn: int) -> bool:
        """Non-consuming membership scan (truncated equality).

        Used by the NACK-compensation arming guard: if the blocked ePSN's
        packet is still in the ring it already traversed the ToR (the
        last-hop FIFO cannot reorder), so it is not lost and compensation
        must not arm.  Same O(capacity) cost class as :meth:`find_tpsn`.
        """
        return self.truncate(psn) in self._entries

    def snapshot(self) -> list[int]:
        """Entries in FIFO order (oldest first) — used by tests."""
        return list(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PsnRingQueue(cap={self.capacity}, "
                f"size={len(self._entries)})")
