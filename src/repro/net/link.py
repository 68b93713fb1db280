"""Bidirectional link handle pairing the two directed :class:`Port`\\ s.

The port layer models one *direction* of a cable; operationally a cable
fails, degrades, or reboots as a unit.  A :class:`Link` names the pair
(``"tor0:spine1"`` or ``"tor0:nic3"``) and exposes whole-cable operations
— administrative up/down, rate scaling against the nominal bandwidth,
and asymmetric latency shifts — which is the surface the fault-injection
subsystem (:mod:`repro.faults`) drives.

Links are registered by :class:`repro.net.topology.Topology` as it wires
switches and NICs, so every cable in a built fabric is addressable by
name without walking adjacency lists.
"""

from __future__ import annotations

from typing import Iterable

from repro.net.port import Port


class Link:
    """A named cable: two directed ports between devices *a* and *b*."""

    __slots__ = ("name", "a_name", "b_name", "port_ab", "port_ba",
                 "kind")

    def __init__(self, a_name: str, b_name: str, port_ab: Port,
                 port_ba: Port, kind: str = "fabric") -> None:
        self.a_name = a_name
        self.b_name = b_name
        self.name = f"{a_name}:{b_name}"
        self.port_ab = port_ab
        self.port_ba = port_ba
        self.kind = kind  # "fabric" (switch<->switch) or "host" (tor<->nic)

    # ------------------------------------------------------------------
    @property
    def ports(self) -> tuple[Port, Port]:
        return (self.port_ab, self.port_ba)

    @property
    def up(self) -> bool:
        """A cable is up only when both directions are up."""
        return self.port_ab.up and self.port_ba.up

    # ------------------------------------------------------------------
    # Whole-cable fault operations
    # ------------------------------------------------------------------
    def set_up(self, up: bool) -> None:
        """Administratively raise/lower both directions."""
        self.port_ab.up = up
        self.port_ba.up = up

    def scale_rate(self, factor: float) -> None:
        """Degrade (or restore) both directions to ``factor`` of nominal.

        ``factor=1.0`` restores the healthy rate; the scale is always
        applied to the *nominal* bandwidth, so degradations do not
        compound across repeated fault events.
        """
        if factor <= 0:
            raise ValueError("rate factor must be positive")
        for port in self.ports:
            port.set_bandwidth(port.nominal_bandwidth_bps * factor)

    def shift_latency(self, extra_ns: int, direction: str = "both") -> None:
        """Add ``extra_ns`` of propagation delay on top of nominal.

        ``direction`` is ``"ab"``, ``"ba"``, or ``"both"`` — asymmetric
        shifts (one direction only) model the skew that breaks RTT-based
        estimators.  ``extra_ns=0`` restores nominal delay.
        """
        if direction not in ("ab", "ba", "both"):
            raise ValueError(f"bad direction {direction!r}")
        targets: Iterable[Port]
        if direction == "ab":
            targets = (self.port_ab,)
        elif direction == "ba":
            targets = (self.port_ba,)
        else:
            targets = self.ports
        for port in targets:
            port.set_delay(port.nominal_delay_ns + int(extra_ns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"Link({self.name}, {state})"
