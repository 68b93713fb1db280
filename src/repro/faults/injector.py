"""Schedulable fault events wired into a live :class:`Network`.

The :class:`FaultInjector` takes a compiled scenario spec
(:func:`repro.faults.spec.compiled_spec`) and schedules each action as a
first-class engine event via ``sim.fire``.  Every applied action
is emitted on the ``FAULT`` observability category, so a flight-ring dump
or a retained trace always shows *what the fabric did to itself* next to
what the protocol machinery decided — failures never appear as silent
state changes.

Semantics
---------
* ``link_down`` / ``link_up`` — administrative cable state.  Packets
  queued behind a dead cable drain as accounted ``link_down`` drops (the
  port charges wire time for them, matching the busy_ns invariants).
  Routing reconverges ``converge_us`` later; until then traffic
  blackholes exactly as on a real fabric between failure and detection.
* ``degrade`` / ``degrade_end`` — both directions run at ``factor`` of
  nominal bandwidth.
* ``latency_shift`` / ``latency_end`` — extra propagation delay, on one
  direction (``ab``/``ba``) or both; asymmetric shifts skew RTT
  estimators without losing a single packet.
* ``reboot`` / ``recover`` — the switch stops forwarding (arrivals are
  dropped with accounting), every incident cable goes down, and its
  egress buffers drain through the queue-policy hooks so shared-buffer
  and PFC credit stay balanced.  Recovery restores only cables the
  reboot itself took down.
* ``pfc_storm`` / ``storm_end`` — the switch holds its neighbours' data
  class paused (through the PFC controller when one is installed, else
  directly at the ports).  Occupancy-driven XON cannot lift the pause
  until the storm ends.
* ``loss`` / ``loss_end`` — random drops on the cable, drawn from the
  dedicated fault RNG substream so packet-level streams are untouched.

Themis coupling: ``converge_us`` after every liveness-changing action
the injector calls :meth:`Network.reconverge`, which rebuilds routes and
sets the Themis middleware to match the fabric — disabled while any
cable or switch is unhealthy (the §6 fallback: PSN-path mapping can no
longer be trusted), re-enabled once the fabric is fully intact again.

Determinism: an empty scenario schedules **zero** events and draws
nothing from any RNG, so a run with an empty spec is bitwise-identical
to a run without an injector.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.spec import (RECONVERGE_KINDS, ScenarioError,
                               compiled_spec)
from repro.net.link import Link
from repro.obs import record as obs_record
from repro.sim.engine import US


def _ns(at_us: float) -> int:
    return int(round(at_us * US))


class FaultInjector:
    """Compile-checked fault schedule bound to one built network."""

    def __init__(self, net, spec) -> None:
        self.net = net
        self.spec = compiled_spec(spec)
        self.converge_ns = _ns(self.spec.get("converge_us", 0.0))
        self.events = list(self.spec["events"])
        #: Fault channel (None when tracing is off / category disabled).
        self.rec = (net.recorder.channel(obs_record.FAULT)
                    if net.recorder is not None else None)
        #: Dedicated substream — deriving it cannot perturb any other
        #: stream, and an empty schedule never draws from it.
        self.rng = net.rng.fault_stream()
        #: (sim_ns, kind, target) for every action actually applied.
        self.applied: list[tuple[int, str, str]] = []
        #: switch name -> list of (pfc_or_None, port) held by a storm.
        self._storm_held: dict[str, list] = {}
        #: switch name -> links reboots took down (to restore), and the
        #: count of reboot windows currently holding the switch down —
        #: overlapping reboots merge, and only the last recovery
        #: restores.
        self._reboot_links: dict[str, list[Link]] = {}
        self._reboot_depth: dict[str, int] = {}
        self.installed = False
        self._validate()

    # ------------------------------------------------------------------
    # Validation against the built fabric
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        topo = self.net.topology
        switch_names = {s.name for s in topo.switches}
        tor_names = {s.name for s in topo.tors}
        for i, ev in enumerate(self.events):
            kind = ev["kind"]
            if "link" in ev:
                try:
                    topo.link(ev["link"])
                except LookupError as exc:
                    raise ScenarioError(
                        f"event {i} ({kind}): {exc}") from None
            if "switch" in ev:
                name = ev["switch"]
                if name not in switch_names:
                    raise ScenarioError(
                        f"event {i} ({kind}): unknown switch {name!r} "
                        f"(known: {sorted(switch_names)})")
                if kind == "reboot" and name in tor_names:
                    raise ScenarioError(
                        f"event {i}: rebooting ToR {name!r} would "
                        "disconnect its NICs; campaigns only reboot "
                        "aggregation/spine switches")

    # ------------------------------------------------------------------
    def install(self) -> int:
        """Schedule every action; returns the number scheduled."""
        if self.installed:
            raise RuntimeError("fault schedule already installed")
        self.installed = True
        sim = self.net.sim
        for ev in self.events:
            sim.fire(_ns(ev["at_us"]) - sim.now, self._apply, ev)
        return len(self.events)

    # ------------------------------------------------------------------
    # Spans (for campaign metrics)
    # ------------------------------------------------------------------
    @property
    def first_fault_ns(self) -> Optional[int]:
        return _ns(self.events[0]["at_us"]) if self.events else None

    @property
    def last_event_ns(self) -> Optional[int]:
        if not self.events:
            return None
        return max(_ns(ev["at_us"]) for ev in self.events)

    # ------------------------------------------------------------------
    # Action dispatch
    # ------------------------------------------------------------------
    def _apply(self, ev: dict) -> None:
        kind = ev["kind"]
        handler = getattr(self, f"_do_{kind}")
        handler(ev)
        target = ev.get("link") or ev.get("switch") or "?"
        self.applied.append((self.net.sim.now, kind, target))
        if kind in RECONVERGE_KINDS:
            self.net.sim.fire(self.converge_ns, FaultInjector._reconverge,
                              self)

    def _emit(self, loc: str, action: str, **detail) -> None:
        if self.rec is not None:
            self.rec.fault(self.net.sim.now, loc, action, **detail)

    def _link(self, ev: dict) -> Link:
        return self.net.topology.link(ev["link"])

    def _switch(self, ev: dict):
        name = ev["switch"]
        return next(s for s in self.net.topology.switches
                    if s.name == name)

    # -- liveness ------------------------------------------------------
    def _do_link_down(self, ev: dict) -> None:
        link = self._link(ev)
        link.set_up(False)
        self._emit(link.name, "link_down")

    def _do_link_up(self, ev: dict) -> None:
        link = self._link(ev)
        link.set_up(True)
        self._emit(link.name, "link_up")

    def _do_reboot(self, ev: dict) -> None:
        switch = self._switch(ev)
        downed = []
        for link in self.net.topology.links_of(switch.name):
            if link.up:
                link.set_up(False)
                downed.append(link)
        self._reboot_links.setdefault(switch.name, []).extend(downed)
        depth = self._reboot_depth.get(switch.name, 0) + 1
        self._reboot_depth[switch.name] = depth
        switch.set_active(False)
        flushed = switch.drain_buffers()
        self._emit(switch.name, "reboot", links_downed=len(downed),
                   packets_flushed=flushed)

    def _do_recover(self, ev: dict) -> None:
        switch = self._switch(ev)
        depth = self._reboot_depth.get(switch.name, 1) - 1
        if depth > 0:
            # An overlapping reboot window still holds the switch down.
            self._reboot_depth[switch.name] = depth
            self._emit(switch.name, "recover", deferred=True)
            return
        self._reboot_depth.pop(switch.name, None)
        for link in self._reboot_links.pop(switch.name, []):
            link.set_up(True)
        switch.set_active(True)
        self._emit(switch.name, "recover")

    def _reconverge(self) -> None:
        intact = self.net.reconverge()
        self._emit("fabric", "reconverge", intact=intact,
                   themis_enabled=intact)

    # -- capacity ------------------------------------------------------
    def _do_degrade(self, ev: dict) -> None:
        link = self._link(ev)
        link.scale_rate(ev["factor"])
        self._emit(link.name, "degrade", factor=ev["factor"])

    def _do_degrade_end(self, ev: dict) -> None:
        link = self._link(ev)
        link.scale_rate(1.0)
        self._emit(link.name, "degrade_end")

    def _do_latency_shift(self, ev: dict) -> None:
        link = self._link(ev)
        extra_ns = _ns(ev["extra_us"])
        link.shift_latency(extra_ns, ev.get("direction", "both"))
        self._emit(link.name, "latency_shift", extra_ns=extra_ns,
                   direction=ev.get("direction", "both"))

    def _do_latency_end(self, ev: dict) -> None:
        link = self._link(ev)
        link.shift_latency(0, ev.get("direction", "both"))
        self._emit(link.name, "latency_end")

    # -- loss ----------------------------------------------------------
    def _do_loss(self, ev: dict) -> None:
        link = self._link(ev)
        for port in link.ports:
            port.set_loss(ev["rate"], self.rng)
        self._emit(link.name, "loss", rate=ev["rate"])

    def _do_loss_end(self, ev: dict) -> None:
        link = self._link(ev)
        for port in link.ports:
            port.set_loss(0.0, None)
        self._emit(link.name, "loss_end")

    # -- PFC storm -----------------------------------------------------
    def _victim_ports(self, switch) -> list:
        """Neighbour egress ports pointing *at* the storming switch —
        the ports its PAUSE frames silence."""
        out = []
        for link in self.net.topology.links_of(switch.name):
            port = (link.port_ba if link.a_name == switch.name
                    else link.port_ab)
            out.append(port)
        return out

    def _do_pfc_storm(self, ev: dict) -> None:
        switch = self._switch(ev)
        held = []
        pfc = switch.pfc
        for port in self._victim_ports(switch):
            if pfc is not None:
                pfc.inject_storm_pause(port)
                held.append((pfc, port))
            elif not port.data_paused:
                # Lossy fabric (no controller): freeze the port directly,
                # remembering it so release never clobbers another pause.
                port.pause_data()
                held.append((None, port))
        self._storm_held[switch.name] = held
        self._emit(switch.name, "pfc_storm", ports=len(held))

    def _do_storm_end(self, ev: dict) -> None:
        switch = self._switch(ev)
        for pfc, port in self._storm_held.pop(switch.name, []):
            if pfc is not None:
                pfc.release_storm_pause(port)
            else:
                port.resume_data()
        self._emit(switch.name, "storm_end")
