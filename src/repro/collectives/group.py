"""Communication groups and collective base machinery.

AI training traffic (§2.1) is a handful of large synchronized flows; the
paper's §5 setup partitions 256 NICs into 16 groups of 16 — one NIC per
rack per group — and runs the same collective in every group
simultaneously.  :func:`cross_rack_groups` reproduces that assignment.
"""

from __future__ import annotations

from functools import partial
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
                 total_bytes: int) -> None:
        if len(set(members)) != len(members) or len(members) < 2:
            raise ValueError("need >= 2 distinct members")
        if total_bytes < len(members):
            raise ValueError("message too small to chunk across the group")
        self.network = network
        self.members = list(members)
        self.total_bytes = int(total_bytes)
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


class StepCollective(Collective):
    """The step engine of the ring and halving-doubling collectives.

    Every node runs ``num_steps`` exchanges in order and enters step
    ``s+1`` only once its step-``s`` send is acknowledged *and* its
    step-``s`` receive delivered.  Every step's receive is pre-posted at
    start (RDMA receive semantics), so a receive is delivered whenever
    its data lands; each step keeps its own flag because a partner
    running ahead on another QP can deliver step ``s+1`` first.
    Subclasses set ``num_steps`` and declare :meth:`exchange`.
    """

    num_steps: int

    def exchange(self, position: int, step: int
                 ) -> tuple[int, int, int, int]:
        """``(send-to position, receive-from position, bytes, qp)`` of
        ``position``'s step ``step``."""
        raise NotImplementedError

    def _launch(self) -> None:
        self._step = [0] * self.size
        self._sent = [False] * self.size
        self._received = [[False] * self.num_steps
                          for _ in range(self.size)]
        for position, node in enumerate(self.members):
            for step in range(self.num_steps):
                _, source, nbytes, qp = self.exchange(position, step)
                self.network.nics[node].expect_message(
                    self.members[source], nbytes, qp=qp,
                    on_done=partial(self._on_received, position, step))
            self._post(position)

    def _post(self, position: int) -> None:
        dest, _, nbytes, qp = self.exchange(position, self._step[position])
        self._sent[position] = False
        self.network.nics[self.members[position]].post_send(
            self.members[dest], nbytes, qp=qp,
            on_done=partial(self._on_sent, position))

    def _on_sent(self, position: int) -> None:
        self._sent[position] = True
        self._advance(position)

    def _on_received(self, position: int, step: int) -> None:
        self._received[position][step] = True
        self._advance(position)

    def _advance(self, position: int) -> None:
        step = self._step[position]
        if self._sent[position] and self._received[position][step]:
            self._step[position] = step + 1
            if step + 1 == self.num_steps:
                self._node_finished()
            else:
                self._post(position)
