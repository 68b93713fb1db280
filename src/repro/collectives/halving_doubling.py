"""Halving-doubling (recursive) Allreduce.

The other major allreduce algorithm used by collective libraries: a
reduce-scatter phase of log2(n) pairwise exchanges over halving message
sizes (partners at distance n/2, n/4, ..., 1), then an allgather phase
mirroring it with doubling sizes.  Compared with the ring algorithm it
has fewer, larger steps and a different (butterfly) communication graph,
so it exercises distinct ECMP collision patterns — useful as a workload
beyond the paper's two.

Each step is a true pairwise exchange on the step engine
(:class:`~repro.collectives.group.StepCollective`), and each (node, step)
pair uses its own QP since partners change every step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.collectives.group import StepCollective

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


class HalvingDoublingAllreduce(StepCollective):
    """Butterfly allreduce; group size must be a power of two."""

    name = "hd_allreduce"

    def __init__(self, network: "Network", members: list[int],
                 total_bytes: int, *, qp: int = 0) -> None:
        super().__init__(network, members, total_bytes, qp=qp)
        n = self.size
        if n & (n - 1):
            raise ValueError("halving-doubling needs a power-of-two group")
        self._log_n = n.bit_length() - 1
        self.num_steps = 2 * self._log_n
        halves = []                               # reduce-scatter sizes
        size = total_bytes
        for _ in range(self._log_n):
            size = -(-size // 2)
            halves.append(size)
        #: per step: message bytes (the allgather mirrors the halving)
        self._bytes = halves + halves[::-1]

    def partner(self, position: int, step: int) -> int:
        log_n = self._log_n
        distance = (self.size >> (step + 1) if step < log_n
                    else 1 << (step - log_n))
        return position ^ distance

    def exchange(self, position: int, step: int
                 ) -> tuple[int, int, int, int]:
        """Swap with the step's partner, on a QP of its own."""
        peer = self.partner(position, step)
        return peer, peer, self._bytes[step], self.qp * self.num_steps + step
