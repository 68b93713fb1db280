"""Traffic posting, the stop rule, the run and the done time — in one place.

Every experiment family runs the same shape: post messages (or start a
collective per group) on a wired :class:`~repro.harness.network.Network`,
run it with :func:`run_built`, stop the fabric once the traffic is over,
and remember when the last part finished.  The reference scenarios, the
traced alltoall (hence fault campaigns), the arena cell, the Fig. 1 rings
and the Fig. 5 runner all post through here and read the same
:class:`Traffic` handle, also reachable afterwards as ``net.traffic``.

The one stop rule, set by :class:`Traffic`: ``net.stop`` once every
posted message is delivered *and* acknowledged, so no ACK is cancelled
in flight and only idle timers, which move no metric, are cut short.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.collectives import COLLECTIVE_CLASSES, Collective
from repro.switch.switch import Switch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.network import Network


class Traffic:
    """Handle on posted traffic: parts still running, when the last ended.

    A part is one message (counted at its receiver) or one collective.
    """

    def __init__(self, net: "Network", parts: int) -> None:
        self.net = net
        self.left = parts
        #: Simulated time the last part finished; None until then.  After
        #: ``net.stop()`` a bounded run drains to its deadline, so
        #: ``net.now_ns`` no longer tells.
        self.done_ns: Optional[int] = None
        self.collectives: list[Collective] = []
        net.traffic = self
        net.metrics.on_idle = net.stop

    @property
    def complete(self) -> bool:
        return self.left == 0

    @property
    def end_ns(self) -> int:
        """The done time, or the clock while parts are still running."""
        return self.net.now_ns if self.done_ns is None else self.done_ns

    def part_done(self) -> None:
        self.left -= 1
        if self.left == 0:
            self.done_ns = self.net.now_ns


def alltoall_pairs(nodes: int) -> list[tuple[int, int]]:
    return [(src, dst) for src in range(nodes) for dst in range(nodes)
            if src != dst]


def post_messages(net: "Network", pairs: Sequence[tuple[int, int]],
                  nbytes: int) -> Traffic:
    """Post one ``nbytes`` message per (src, dst) pair, in order."""
    traffic = Traffic(net, len(pairs))
    for src, dst in pairs:
        net.post_message(src, dst, nbytes,
                         on_receiver_done=traffic.part_done)
    return traffic


def start_collectives(net: "Network", collective: str,
                      groups: Sequence[list[int]], nbytes: int) -> Traffic:
    """Start ``collective`` in every group at once; one part per group."""
    if collective not in COLLECTIVE_CLASSES:
        raise ValueError(f"unknown collective {collective!r}; "
                         f"expected one of {sorted(COLLECTIVE_CLASSES)}")
    cls = COLLECTIVE_CLASSES[collective]
    traffic = Traffic(net, len(groups))
    traffic.collectives = [cls(net, members, nbytes) for members in groups]
    for coll in traffic.collectives:
        coll.on_complete = traffic.part_done
        coll.start()
    return traffic


def run_built(net: "Network", deadline_ns: int) -> None:
    """Run a built network until its traffic is done (or the deadline),
    then cancel the NIC timers: the one run-and-stop every cell, bench
    and traced run ends with."""
    net.run(until_ns=deadline_ns)
    net.stop()


def lossy_uplinks(net: "Network", tors: Iterable[Switch], loss: float,
                  stream: str) -> None:
    """Random loss on every switch-facing port of ``tors``: spraying keeps
    hitting the lossy paths, so recovery dominates the event mix.  All
    ports share one RNG substream forked as ``stream``."""
    loss_rng = net.rng.fork(stream)
    for tor in tors:
        for port in tor.ports:
            if isinstance(port.peer, Switch):
                port.set_loss(loss, loss_rng)
