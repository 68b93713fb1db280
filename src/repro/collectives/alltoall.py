"""Alltoall collective.

Every node exchanges ``total/n`` bytes with every other node, all pairs in
flight simultaneously — the bursty, low-entropy pattern (§2.1) that makes
ECMP collisions catastrophic and gives packet-level LB its headroom.
Each (src, dst) pair gets its own QP, matching the higher QP counts the
paper reports for Alltoall (§4 cites ~10 QPs/GPU vs 4 for Allreduce).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.collectives.group import Collective

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


class AllToAll(Collective):
    """Full-mesh exchange within a group."""

    name = "alltoall"

    def __init__(self, network: "Network", members: list[int],
                 total_bytes: int) -> None:
        super().__init__(network, members, total_bytes)
        self._pending_recvs = [self.size - 1] * self.size

    def _launch(self) -> None:
        chunk = self.chunk_bytes()
        for position, node in enumerate(self.members):
            for peer_position, peer in enumerate(self.members):
                if peer == node:
                    continue
                self.network.nics[node].expect_message(
                    peer, chunk, on_done=self._make_recv_cb(position))
                self.network.nics[node].post_send(peer, chunk)

    def _make_recv_cb(self, position: int):
        def callback() -> None:
            self._pending_recvs[position] -= 1
            if self._pending_recvs[position] == 0:
                self._node_finished()
        return callback
