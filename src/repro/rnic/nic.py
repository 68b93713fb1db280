"""The RNIC device: QP management and packet dispatch.

One :class:`Rnic` per host.  It owns the uplink port to its ToR, creates
sender/receiver QPs lazily, and dispatches arriving packets:

* DATA   -> receiver QP for the packet's flow,
* ACK/NACK -> sender QP of the reverse flow (reliability feedback),
* CNP    -> sender QP's congestion control.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.cc.base import CongestionControl
from repro.net.node import Device
from repro.net.packet import (_POOL_CAP, ACK, CNP, NACK, FlowKey, Packet,
                              _pool)
from repro.net.port import Port
from repro.rnic.config import RnicConfig
from repro.rnic.qp import SenderQp
from repro.rnic.reliability import RECEIVER_CLASSES, ReceiverQp
from repro.sim.engine import Simulator
from repro.sim.rng import SimRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.metrics import Metrics

#: Signature for per-QP congestion-control construction: receives the data
#: flow so the harness can label the CC's trace channel with it.
CcFactory = Callable[[FlowKey], CongestionControl]


class Rnic(Device):
    """A commodity RNIC attached to one ToR port."""

    def __init__(self, sim: Simulator, nic_id: int, *,
                 config: RnicConfig, metrics: "Metrics", rng: SimRng,
                 cc_factory: CcFactory, transport: str = "nic_sr") -> None:
        super().__init__(sim, f"nic{nic_id}")
        if transport not in RECEIVER_CLASSES:
            raise ValueError(f"unknown transport {transport!r}; "
                             f"expected one of {sorted(RECEIVER_CLASSES)}")
        self.nic_id = nic_id
        self.config = config
        self.metrics = metrics
        self.rng = rng
        self.cc_factory = cc_factory
        self.transport = transport
        self.uplink: Optional[Port] = None
        #: Observability recorder (repro.obs), attached by the harness
        #: before any QP exists; QPs resolve their channels from it.
        self.recorder = None
        #: MPRDMA-mode hook (the harness sets it for ``mp_rdma`` only):
        #: resolves a flow to its equal-cost path count so senders can
        #: apply Eq. 3 themselves.
        self.nack_filter_paths: Optional[Callable[[FlowKey], int]] = None

        self.senders: dict[FlowKey, SenderQp] = {}
        self.receivers: dict[FlowKey, ReceiverQp] = {}
        # Shadow index keyed by the *control* direction so arriving
        # ACK/NACK/CNP dispatch skips the per-packet FlowKey reversal.
        self._senders_by_ctrl: dict[FlowKey, SenderQp] = {}

    # ------------------------------------------------------------------
    # QP management
    # ------------------------------------------------------------------
    def sender(self, flow: FlowKey) -> SenderQp:
        """Get or create the sender QP for a data flow rooted here."""
        if flow.src != self.nic_id:
            raise ValueError(f"{self.name} cannot send flow {flow}")
        qp = self.senders.get(flow)
        if qp is None:
            sport = self.rng.randint(1024, 65536)
            cc = self.cc_factory(flow)
            filter_n = (None if self.nack_filter_paths is None
                        else self.nack_filter_paths(flow))
            qp = SenderQp(self.sim, self, flow, cc, self.config,
                          self.metrics, udp_sport=sport,
                          gbn=self.transport == "gbn",
                          nack_filter_n_paths=filter_n)
            self.senders[flow] = qp
            self._senders_by_ctrl[flow.reversed()] = qp
        return qp

    def receiver(self, flow: FlowKey) -> ReceiverQp:
        """Get or create the receiver QP for a data flow ending here."""
        if flow.dst != self.nic_id:
            raise ValueError(f"{self.name} cannot receive flow {flow}")
        qp = self.receivers.get(flow)
        if qp is None:
            # Receivers enqueue their ACK/NACK/CNPs on the uplink directly.
            if self.uplink is None:
                raise RuntimeError(f"{self.name} is not attached to a ToR")
            cls = RECEIVER_CLASSES[self.transport]
            qp = cls(self.sim, self, flow, self.config, self.metrics)
            self.receivers[flow] = qp
        return qp

    def post_send(self, dst: int, nbytes: int, *, qp: int = 0,
                  on_done: Optional[Callable[[], None]] = None) -> FlowKey:
        """Post an ``nbytes`` RDMA write toward ``dst``; returns the flow."""
        if dst == self.nic_id:
            raise ValueError("loopback flows are not modelled")
        flow = FlowKey(self.nic_id, dst, qp)
        self.sender(flow).post_send(nbytes, on_done)
        return flow

    def expect_message(self, src: int, nbytes: int, *, qp: int = 0,
                       on_done: Optional[Callable[[], None]] = None
                       ) -> FlowKey:
        """Pre-post the matching receive for a peer's :meth:`post_send`."""
        flow = FlowKey(src, self.nic_id, qp)
        self.receiver(flow).expect_message(nbytes, on_done)
        return flow

    # ------------------------------------------------------------------
    # Wire I/O
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: Optional[Port]) -> None:
        """Consume a delivered packet and recycle it.

        The NIC is every packet's terminal hop, so once the QP handlers
        return (they copy the header fields they need) the object goes
        back to the packet pool — see the pooling invariant in
        :mod:`repro.net.packet`.
        """
        if packet.is_data:
            # Dict fast path: after the first packet of a flow the QP
            # exists, so skip receiver()'s validation wrapper.
            rqp = self.receivers.get(packet.flow)
            if rqp is None:
                rqp = self.receiver(packet.flow)
            rqp.on_data(packet)
        else:
            # Control packets travel the reverse flow; the shadow index
            # is keyed by that direction so no FlowKey is built here.
            sender = self._senders_by_ctrl.get(packet.flow)
            if sender is not None:
                if packet.ptype is ACK:
                    sender.on_ack(packet.epsn)
                elif packet.ptype is NACK:
                    sender.on_nack(packet.epsn, packet.psn)
                elif packet.ptype is CNP:
                    sender.on_cnp()
        # release_packet(packet), inline: once per delivered packet.
        if not packet._in_pool:
            packet._in_pool = True
            if len(_pool) < _POOL_CAP:
                _pool.append(packet)

    def stop(self) -> None:
        """Tear down all QP timers (end of experiment)."""
        for qp in self.senders.values():
            qp.stop()
        for rqp in self.receivers.values():
            rqp.stop()
