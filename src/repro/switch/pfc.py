"""Priority Flow Control (IEEE 802.1Qbb) for lossless RoCE fabrics.

Production RoCE deployments traditionally run the data class lossless:
when a switch's ingress accounting for an upstream port crosses XOFF it
sends a PAUSE for that priority; the upstream transmitter stops sending
data (the control class keeps flowing) until occupancy drains below XON
and a RESUME goes out.

The paper's experiments run DCQCN over ECN without PFC (the Zero-Touch
RoCE setting its RNIC citations describe), so :class:`PfcConfig` is off
by default — but the substrate is here because (a) loss-free operation is
the environment NIC-SR was designed for, and (b) the lossless-vs-lossy
ablation (`benchmarks/test_pfc_lossless.py`) shows Themis's behaviour is
not an artifact of drops.

Implementation notes: per-upstream-port ingress byte accounting on each
switch; PAUSE/RESUME are modelled as a control signal that takes one link
propagation delay to act on the upstream egress port (pausing only its
data queue, mirroring per-priority PFC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.packet import Packet
from repro.net.port import Port
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.switch.switch import Switch


@dataclass(frozen=True)
class PfcConfig:
    """PFC thresholds in bytes of per-ingress-port occupancy."""

    xoff_bytes: int = 80_000
    xon_bytes: int = 40_000

    def __post_init__(self) -> None:
        if not 0 < self.xon_bytes <= self.xoff_bytes:
            raise ValueError("require 0 < XON <= XOFF")


class PfcController:
    """Per-switch PFC state machine.

    Tracks how many bytes queued in this switch arrived from each
    upstream egress port, and pauses/resumes those ports around the
    XOFF/XON thresholds.
    """

    def __init__(self, sim: Simulator, switch: "Switch",
                 config: PfcConfig) -> None:
        self.sim = sim
        self.switch = switch
        self.config = config
        self._ingress_bytes: dict[Port, int] = {}
        self._paused: set[Port] = set()
        #: Ports held paused by an injected PFC storm (repro.faults):
        #: occupancy-driven XON must not lift these until the storm ends.
        self._storm_paused: set[Port] = set()
        #: pkt_id -> upstream port, for crediting on dequeue.
        self._origin: dict[int, Port] = {}
        self.pauses_sent = 0
        self.resumes_sent = 0
        #: PFC observability channel (repro.obs); None = disabled.
        self.rec = None

    # ------------------------------------------------------------------
    def on_ingress(self, packet: Packet, in_port: Optional[Port]) -> None:
        """Charge an arriving data packet to its upstream port."""
        if in_port is None or packet.is_control:
            return
        self._origin[packet.pkt_id] = in_port
        occupancy = self._ingress_bytes.get(in_port, 0) \
            + packet.wire_bytes
        self._ingress_bytes[in_port] = occupancy
        if occupancy >= self.config.xoff_bytes \
                and in_port not in self._paused:
            self._paused.add(in_port)
            self.pauses_sent += 1
            if self.rec is not None:
                self.rec.pfc(self.sim.now, in_port.name, "pause",
                             occupancy)
            # The PAUSE frame crosses the wire back to the transmitter.
            self.sim.fire(in_port.delay_ns, Port.pause_data, in_port)

    def on_egress(self, packet: Packet) -> None:
        """Credit a departing data packet back to its upstream port."""
        in_port = self._origin.pop(packet.pkt_id, None)
        if in_port is None:
            return
        occupancy = self._ingress_bytes.get(in_port, 0) \
            - packet.wire_bytes
        self._ingress_bytes[in_port] = occupancy
        if occupancy <= self.config.xon_bytes and in_port in self._paused:
            if in_port in self._storm_paused:
                return  # storm holds the pause regardless of occupancy
            self._paused.discard(in_port)
            self.resumes_sent += 1
            if self.rec is not None:
                self.rec.pfc(self.sim.now, in_port.name, "resume",
                             occupancy)
            self.sim.fire(in_port.delay_ns, Port.resume_data, in_port)

    # ------------------------------------------------------------------
    # Injected PFC storms (repro.faults): a malfunctioning neighbour
    # spews PAUSE frames unconditionally, freezing the data class on the
    # victim ports until the storm subsides.
    # ------------------------------------------------------------------
    def inject_storm_pause(self, port: Port) -> None:
        """Hold ``port`` paused regardless of ingress occupancy."""
        self._storm_paused.add(port)
        if port not in self._paused:
            self._paused.add(port)
            self.pauses_sent += 1
            if self.rec is not None:
                self.rec.pfc(self.sim.now, port.name, "storm_pause",
                             self._ingress_bytes.get(port, 0))
            self.sim.fire(port.delay_ns, Port.pause_data, port)

    def release_storm_pause(self, port: Port) -> None:
        """End the storm hold; resume unless occupancy still demands
        the pause (the normal XOFF/XON machinery takes back over)."""
        self._storm_paused.discard(port)
        if port not in self._paused:
            return
        if self._ingress_bytes.get(port, 0) > self.config.xon_bytes:
            return  # legitimately congested: leave the pause standing
        self._paused.discard(port)
        self.resumes_sent += 1
        if self.rec is not None:
            self.rec.pfc(self.sim.now, port.name, "storm_resume",
                         self._ingress_bytes.get(port, 0))
        self.sim.fire(port.delay_ns, Port.resume_data, port)

    def ingress_occupancy(self, port: Port) -> int:
        return self._ingress_bytes.get(port, 0)

    @property
    def paused_ports(self) -> set[Port]:
        return set(self._paused)

