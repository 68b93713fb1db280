"""Ring-based collectives (Allreduce, AllGather, ReduceScatter).

All three follow the same dataflow: at every step each node sends one
chunk to its right neighbour and receives one from its left neighbour.
The step loop (pre-posted receives, a send posted once the previous
step's send is acknowledged and its receive delivered) is
:class:`~repro.collectives.group.StepCollective`'s.

Each (node -> right neighbour) pair reuses a single QP across all steps,
so PSN numbering is continuous — exactly the state Themis-D's per-QP ring
queue is sized for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.collectives.group import StepCollective

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


class RingCollective(StepCollective):
    """Ring dataflow on the step engine; subclasses fix the number of
    ring steps."""

    name = "ring"

    def __init__(self, network: "Network", members: list[int],
                 total_bytes: int, *, num_steps: int, qp: int = 0) -> None:
        super().__init__(network, members, total_bytes, qp=qp)
        if num_steps < 1:
            raise ValueError("need at least one ring step")
        self.num_steps = num_steps

    def exchange(self, position: int, step: int
                 ) -> tuple[int, int, int, int]:
        """Send right, receive from the left, one chunk, one QP."""
        return ((position + 1) % self.size, (position - 1) % self.size,
                self.chunk_bytes(), self.qp)


class RingAllreduce(RingCollective):
    """Reduce-scatter + allgather: 2*(n-1) steps of ``total/n`` chunks."""

    name = "allreduce"

    def __init__(self, network: "Network", members: list[int],
                 total_bytes: int, *, qp: int = 0) -> None:
        super().__init__(network, members, total_bytes,
                         num_steps=2 * (len(members) - 1), qp=qp)


class RingAllgather(RingCollective):
    """n-1 ring steps; every node ends with all chunks."""

    name = "allgather"

    def __init__(self, network: "Network", members: list[int],
                 total_bytes: int, *, qp: int = 0) -> None:
        super().__init__(network, members, total_bytes,
                         num_steps=len(members) - 1, qp=qp)


class RingReduceScatter(RingCollective):
    """n-1 ring steps; every node ends with one reduced chunk."""

    name = "reducescatter"

    def __init__(self, network: "Network", members: list[int],
                 total_bytes: int, *, qp: int = 0) -> None:
        super().__init__(network, members, total_bytes,
                         num_steps=len(members) - 1, qp=qp)
