"""Communication groups and collective base machinery.

AI training traffic (§2.1) is a handful of large synchronized flows; the
paper's §5 setup partitions 256 NICs into 16 groups of 16 — one NIC per
rack per group — and runs the same collective in every group
simultaneously.  :func:`cross_rack_groups` reproduces that assignment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


def cross_rack_groups(num_tors: int, nics_per_tor: int
                      ) -> list[list[int]]:
    """§5 group layout: group ``g`` holds NIC ``g`` of every rack.

    Assumes the leaf-spine NIC numbering (``tor * nics_per_tor + slot``).
    Every intra-group hop is therefore cross-rack, which is what makes the
    collectives exercise the multi-path core.
    """
    return [[tor * nics_per_tor + g for tor in range(num_tors)]
            for g in range(nics_per_tor)]


def interleaved_ring_groups(num_nodes: int, num_groups: int
                            ) -> list[list[int]]:
    """Fig. 1a layout: group ``g`` = nodes with ``id % num_groups == g``
    (e.g. {0,2,4,6} and {1,3,5,7})."""
    if num_nodes % num_groups:
        raise ValueError("groups must divide the node count")
    return [list(range(g, num_nodes, num_groups)) for g in range(num_groups)]


def ring_pairs(groups: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Fig. 1's workload: a ring in every group — one ``(node, next node
    of its group)`` pair per member, group-major."""
    return [(node, members[(position + 1) % len(members)])
            for members in groups for position, node in enumerate(members)]


class Collective:
    """Base class: tracks per-node completion and the group finish time."""

    name = "collective"

    def __init__(self, network: "Network", members: list[int],
                 total_bytes: int, *, qp: int = 0) -> None:
        if len(set(members)) != len(members) or len(members) < 2:
            raise ValueError("need >= 2 distinct members")
        if total_bytes < len(members):
            raise ValueError("message too small to chunk across the group")
        self.network = network
        self.members = list(members)
        self.total_bytes = int(total_bytes)
        self.qp = qp
        self.start_ns: Optional[int] = None
        self.done_ns: Optional[int] = None
        #: Called once, when the last member finishes.
        self.on_complete: Optional[Callable[[], None]] = None
        self._nodes_finished = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def complete(self) -> bool:
        return self.done_ns is not None

    def completion_time_ns(self) -> int:
        if self.start_ns is None or self.done_ns is None:
            raise RuntimeError(f"{self.name} has not completed")
        return self.done_ns - self.start_ns

    def start(self) -> None:
        if self.start_ns is not None:
            raise RuntimeError("collective already started")
        self.start_ns = self.network.now_ns
        self._launch()

    def _launch(self) -> None:
        raise NotImplementedError

    def _node_finished(self) -> None:
        self._nodes_finished += 1
        if self._nodes_finished == self.size:
            self.done_ns = self.network.now_ns
            if self.on_complete is not None:
                self.on_complete()

    def chunk_bytes(self) -> int:
        """Per-step chunk: the buffer split across the group."""
        return -(-self.total_bytes // self.size)
