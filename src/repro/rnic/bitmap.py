"""Out-of-order reception tracker.

Commodity RNICs that enable OOO reception keep a bitmap of PSNs received
above the expected PSN (§2.2).  :class:`OooTracker` models it as a set —
semantically identical, and O(1) amortized for the advance scan because
each PSN is inserted and removed exactly once.
"""

from __future__ import annotations


class OooTracker(set):
    """Set of PSNs received ahead of the expected PSN.

    A ``set`` subclass, so the per-packet questions a receiver asks
    (``psn in tracker``, ``if tracker``) are answered in C.
    """

    __slots__ = ("peak_size",)

    def __init__(self) -> None:
        super().__init__()
        self.peak_size = 0

    def add(self, psn: int) -> None:
        super().add(psn)
        size = len(self)
        if size > self.peak_size:
            self.peak_size = size

    def advance(self, epsn: int) -> int:
        """Consume the contiguous run starting at ``epsn``.

        Returns the new expected PSN: the smallest PSN >= ``epsn`` that has
        not been received.  Mirrors the hardware rule "the ePSN advances to
        the smallest PSN whose packet has not yet been received".
        """
        while epsn in self:
            self.discard(epsn)
            epsn += 1
        return epsn

    def smallest(self) -> int | None:
        """Smallest tracked PSN (None when empty); used by invariants."""
        return min(self) if self else None
