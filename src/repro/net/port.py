"""Egress port: serialization, propagation, and priority queueing.

A :class:`Port` models one direction of a cable: the owning device enqueues
packets, the port serializes them at link bandwidth, and after the
propagation delay the peer device's :meth:`receive` runs.

Two strict-priority FIFOs are kept: control packets (ACK/NACK/CNP) always
transmit before data, mirroring the lossless high-priority control class
RDMA fabrics configure.  A switch port carries its switch's
:class:`~repro.switch.buffer.SharedBuffer` and
:class:`~repro.switch.ecn.EcnMarker` (``buffer`` / ``marker``, both
``None`` on a NIC uplink) and does buffer admission (drops), occupancy
accounting and ECN marking for data packets itself; control packets are
never dropped or marked.

Folded transmit path
--------------------
The hot path schedules **one** event per transmitted packet: when a packet
is popped from the FIFOs (:meth:`_pump`), its delivery at
``serialization + propagation`` is scheduled immediately, and the port
tracks serializer availability with the ``_free_at`` timestamp instead of
a separate serialization-done event.  A boundary wake-up (``_pump``
re-scheduled via the engine's lightweight ``fire`` path) is armed only
when a backlog is actually waiting at the end of the
current serialization — an idle or lightly-loaded port pays zero extra
events.  Drop decisions (link down, random loss) are made when the packet
starts serializing; the drop is accounted immediately rather than one
serialization time later, which shifts fault bookkeeping by at most one
packet time and schedules no event at all for lost packets.

A packet that reaches an **idle** port (serializer free, no wake-up
pending, both FIFOs empty and, for data, the class not paused) is never
queued: :meth:`Port.enqueue` makes the same admission test, peak-occupancy
update, marking decision (queue depth = the packet's own wire bytes) and
PFC egress credit the queued path makes, then hands the packet to
:meth:`Port._pump`, whose transmit tail is the only one.  The engine calls
and their order are those of append-then-pop.  A port whose
``queue_enq``/``queue_deq`` channels are wired always queues, so a traced
run records one of each per packet through a switch port (a NIC
uplink's ring records a QP joining it and a segment pulled).

Pull-mode uplink
----------------
A NIC uplink is a TX arbiter, as a commodity RNIC's scheduler (and the
ns-3 RDMA model's NIC dequeue) is: its data FIFO is a round-robin ring
of sender QPs that have an eligible segment, never of packets.  A QP
joins the ring through :meth:`Port.ready` when its pacing gap ends, and
an idle uplink pulls from it at once.  Whenever the wire frees,
:meth:`_pump` pops the head QP and asks it for its next segment
(``SenderQp.pull``: a retransmission first, else new data, stamped and
built at that instant, before the loss or link-down decision).  The QP
stays on the ring, at its tail, only if its next pacing gap ends by the
time the wire frees; otherwise it waits off the ring on its pacing
timer.  So a rate cut or a retransmission acts at the QP's next turn, a
backlogged uplink holds no per-segment state (its ``queued_bytes`` stays
0), and data segments take their ``pkt_id`` in wire order.  Switch
ports only ever queue packets.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import SEC, Simulator
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import Device
    from repro.rnic.qp import SenderQp
    from repro.switch.buffer import SharedBuffer
    from repro.switch.ecn import EcnMarker


class Port:
    """One egress port of a device, wired to a peer device."""

    __slots__ = (
        "sim", "owner", "bandwidth_bps", "delay_ns", "_ns_per_byte",
        "nominal_bandwidth_bps", "nominal_delay_ns",
        "name", "index", "peer", "_peer_recv", "_fire", "_fire2",
        "_control", "_data", "queued_bytes",
        "_free_at", "_pump_armed", "_data_paused", "_pump_cb",
        "buffer", "marker", "loss_rate",
        "up", "_loss_rng", "bytes_sent",
        "busy_ns", "on_drop", "_rec_enq", "_rec_deq", "_rec_drop",
        "_rec_ecn",
    )

    def __init__(self, sim: Simulator, owner: "Device", *,
                 bandwidth_bps: float, delay_ns: int,
                 name: str = "") -> None:
        self.sim = sim
        self.owner = owner
        self.bandwidth_bps = float(bandwidth_bps)
        self.delay_ns = int(delay_ns)
        # Healthy-link values, restored when an injected degradation or
        # latency shift is lifted.
        self.nominal_bandwidth_bps = self.bandwidth_bps
        self.nominal_delay_ns = self.delay_ns
        # Serialization cost per wire byte; folded into one multiply on
        # the hot path instead of per-packet float division.
        self._ns_per_byte = 8.0 * SEC / self.bandwidth_bps
        self.name = name or f"{owner.name}.p?"
        self.index = -1
        self.peer: Optional["Device"] = None
        self._peer_recv: Optional[Callable] = None
        # Bound engine entry points, looked up once per port instead of
        # twice per transmitted packet.
        self._fire = sim.fire
        self._fire2 = sim.fire2

        self._control: deque[Packet] = deque()
        # Data packets, or on a NIC uplink the ring of sender QPs.
        self._data: deque[Packet | SenderQp] = deque()
        self.queued_bytes = 0          # data bytes waiting (excl. in-flight)
        self._free_at = 0              # ns when the serializer frees up
        self._pump_armed = False       # boundary wake-up pending?
        # Bound method cached once: ``self._pump`` at a call site builds
        # a fresh bound-method object per packet; this alias does not.
        self._pump_cb = self._pump
        self._data_paused = False      # PFC: data class held, control flows
        # Shared buffer and ECN marker of the owning switch, set together
        # by ``Switch.add_port``; a NIC uplink has neither and admits
        # everything unmarked.
        self.buffer: Optional["SharedBuffer"] = None
        self.marker: Optional["EcnMarker"] = None

        # Fault injection: probability of silently dropping a departing
        # data packet (models a lossy cable), and an administrative down
        # flag (models link failure).
        self.loss_rate = 0.0
        self.up = True
        self._loss_rng = None

        # Stats
        self.bytes_sent = 0
        self.busy_ns = 0
        self.on_drop: Optional[Callable[[Packet, "Port"], None]] = None

        # Observability channels (repro.obs): None when the category is
        # disabled, so the hot path pays one attribute test per packet.
        # enq/deq hold the recorder's ``queue_enq``/``queue_deq``
        # emitters, not the recorder itself.
        self._rec_enq = None
        self._rec_deq = None
        self._rec_drop = None
        self._rec_ecn = None

        owner.attach_port(self)
        self.name = f"{owner.name}.p{self.index}"

    # ------------------------------------------------------------------
    def connect(self, peer: "Device") -> None:
        self.peer = peer
        # Bound method cached once: deliveries fire straight into the
        # peer's receive() without a per-packet trampoline.
        self._peer_recv = peer.receive

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Transmit a packet, now if the port is idle, else after queueing.

        Returns ``True`` if accepted, ``False`` if the shared buffer
        refused it.
        """
        if packet.is_control:
            if not (self._pump_armed or self._control or self._data) \
                    and self.sim.now >= self._free_at:
                self._pump(packet)
                return True
            self._control.append(packet)
        else:
            wire = packet.wire_bytes
            # Egress depth this packet sees, itself included.
            depth = self.queued_bytes + wire
            idle = (not (self._pump_armed or self._data_paused
                         or self._data or self._control)
                    and self._rec_enq is None
                    and self.sim.now >= self._free_at)
            buf = self.buffer
            if buf is not None:
                used = buf.used_bytes + wire
                if used > buf.capacity_bytes:
                    self._drop(packet)
                    return False
                if used > buf.peak_bytes:
                    buf.peak_bytes = used
                if not packet.ecn_marked and self.marker.should_mark(depth):
                    packet.ecn_marked = True
                    if self._rec_ecn is not None:
                        self._rec_ecn.ecn_mark(self.sim.now, self.name,
                                               packet, depth)
                if idle:
                    # Leaves as it arrives: the pool's occupancy is
                    # untouched and the ingress credit goes straight back.
                    pfc = self.owner.pfc
                    if pfc is not None:
                        pfc.on_egress(packet)
                else:
                    buf.used_bytes = used
            if idle:
                self._pump(packet)
                return True
            self._data.append(packet)
            self.queued_bytes = depth
            if self._rec_enq is not None:
                self._rec_enq(self.sim.now, self.name, depth,
                              len(self._data))
        if not self._pump_armed:
            now = self.sim.now
            if now >= self._free_at:
                self._pump()
            else:
                # Serializer mid-packet with no boundary wake-up pending
                # (its queues were empty when it last popped): arm one.
                self._pump_armed = True
                self._fire(self._free_at - now, self._pump_cb)
        return True

    def ready(self, sender: "SenderQp") -> None:
        """Put *sender*, whose pacing gap has ended, on this NIC uplink's
        ring; an idle uplink pulls its segment at once.  The caller keeps
        a QP on the ring at most once."""
        data = self._data
        data.append(sender)
        if self._rec_enq is not None:
            self._rec_enq(self.sim.now, self.name, 0, len(data))
        if not self._pump_armed:
            now = self.sim.now
            if now >= self._free_at:
                self._pump()
            else:
                self._pump_armed = True
                self._fire(self._free_at - now, self._pump_cb)

    def withdraw(self, sender: "SenderQp") -> None:
        """Take *sender* off the ring if it waits there (QP teardown)."""
        if sender in self._data:
            self._data.remove(sender)

    # ------------------------------------------------------------------
    def _pump(self, packet: Optional[Packet] = None) -> None:
        """Fold one packet's whole transmit into one scheduled delivery
        event: *packet* when :meth:`enqueue` found the port idle, else
        the next eligible one popped from the FIFOs or, on a NIC uplink,
        pulled from the QP at the head of the ring.

        Doubles as the boundary wake-up callback (scheduled via
        ``sim.fire``), so its first action is to disarm the wake-up flag.
        """
        self._pump_armed = False
        control = self._control
        data = self._data
        if packet is not None:
            wire = packet.wire_bytes
        elif control:
            packet = control.popleft()
            wire = packet.wire_bytes
        elif data and not self._data_paused:
            packet = data.popleft()
            buf = self.buffer
            if buf is not None:
                wire = packet.wire_bytes
                self.queued_bytes -= wire
                buf.used_bytes -= wire
                pfc = self.owner.pfc
                if pfc is not None:
                    pfc.on_egress(packet)
            elif packet.__class__ is Packet:
                wire = packet.wire_bytes
                self.queued_bytes -= wire
            else:
                # A NIC uplink: the head QP builds its next segment now,
                # before the loss and link-down decision below, and goes
                # back to the tail if it is still eligible.  A QP left
                # with nothing to send drops off the ring.
                packet = packet.pull()
                while packet is None:
                    if not data:
                        return
                    packet = data.popleft().pull()
                wire = packet.wire_bytes
            if self._rec_deq is not None:
                self._rec_deq(self.sim.now, self.name,
                              self.queued_bytes, len(data))
        else:
            return
        tx_ns = int(wire * self._ns_per_byte)
        if tx_ns <= 0:
            tx_ns = 1
        self.busy_ns += tx_ns
        self._free_at = self.sim.now + tx_ns
        # Healthy-link fast path first; the RNG draw happens under
        # exactly the historical conditions (link up, loss configured,
        # data packet, rng wired) so loss substreams stay bit-identical.
        if self.up and not (self.loss_rate > 0.0 and packet.is_data
                            and self._loss_rng is not None
                            and self._loss_rng.random() < self.loss_rate):
            self.bytes_sent += wire
            # Delivery dispatches straight into the peer's receive(),
            # no per-packet trampoline.
            self._fire2(tx_ns + self.delay_ns, self._peer_recv,
                        packet, self)
        else:
            self._drop(packet, "link_down" if not self.up else "loss")
        if control or (data and not self._data_paused):
            self._pump_armed = True
            self._fire(tx_ns, self._pump_cb)

    def _drop(self, packet: Packet, reason: str = "admission") -> None:
        """Every discard at a port: one DROP record with *reason*, one
        ``on_drop`` call (``Metrics.on_drop`` on a wired fabric)."""
        if self._rec_drop is not None:
            self._rec_drop.drop(self.sim.now, self.name, packet, reason)
        if self.on_drop is not None:
            self.on_drop(packet, self)

    # ------------------------------------------------------------------
    # PFC (802.1Qbb) hooks — driven by the downstream switch's
    # PfcController; only the lossy data class is held back.
    # ------------------------------------------------------------------
    def pause_data(self) -> None:
        self._data_paused = True

    def resume_data(self) -> None:
        self._data_paused = False
        if not self._pump_armed and (self._control or self._data):
            if self.sim.now >= self._free_at:
                self._pump()
            else:
                self._pump_armed = True
                self._fire(self._free_at - self.sim.now, self._pump_cb)

    @property
    def data_paused(self) -> bool:
        return self._data_paused

    # ------------------------------------------------------------------
    def set_loss(self, rate: float, rng) -> None:
        """Enable random drops of departing data packets (fault injection)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        self.loss_rate = rate
        self._loss_rng = rng

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the serialization rate (fault injection: degradation).

        Packets already mid-serialization keep their old departure time;
        only packets popped after the change see the new rate, which is
        how a real PHY renegotiation behaves.
        """
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = float(bandwidth_bps)
        self._ns_per_byte = 8.0 * SEC / self.bandwidth_bps

    def set_delay(self, delay_ns: int) -> None:
        """Change the propagation delay (fault injection: latency shift).

        In-flight deliveries keep their scheduled arrival, so a shrinking
        delay reorders one direction of the link: a packet sent after the
        change can land before one still in flight.  Switching 6 -> 1 us
        at t = 3 us on a 100 G port that sends a packet every 200 ns
        delivers PSN 16 before PSN 0.
        """
        if delay_ns < 0:
            raise ValueError("delay must be non-negative")
        self.delay_ns = int(delay_ns)

    def flush(self, reason: str = "flush") -> int:
        """Drop every queued packet (fault injection: buffer drain).

        Data packets release their shared-buffer bytes and PFC ingress
        credit before the drop, as a transmitted packet would — the
        invariant suite checks ``buffer.used_bytes == 0`` after runs.
        A NIC uplink's ring holds QPs, not segments: it stays.  Returns
        the number of packets flushed.
        """
        flushed = 0
        while self._control:
            self._drop(self._control.popleft(), reason)
            flushed += 1
        while self._data and self._data[0].__class__ is Packet:
            packet = self._data.popleft()
            self.queued_bytes -= packet.wire_bytes
            if self.buffer is not None:
                self.buffer.used_bytes -= packet.wire_bytes
                if self.owner.pfc is not None:
                    self.owner.pfc.on_egress(packet)
            self._drop(packet, reason)
            flushed += 1
        return flushed

    @property
    def busy(self) -> bool:
        """Is the serializer occupied right now?"""
        return self.sim.now < self._free_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer.name if self.peer else "?"
        return f"Port({self.name}->{peer}, q={self.queued_bytes}B)"
