"""Declarative fault scenarios: composable layers -> a compiled spec.

A scenario is assembled seedemu-style from **fault layers** — small
dataclasses, each describing one failure pattern on one target — and
compiled into a flat, JSON-serialisable **campaign spec**: a sorted list
of timed actions the :class:`repro.faults.injector.FaultInjector`
schedules as first-class engine events.  The compiled document is what
travels (CLI files, job params, checkpoints), so a full fault campaign
fits in a ~20-line JSON file::

    {
      "name": "flap-smoke",
      "converge_us": 25,
      "workload": {"nodes": 8, "message_bytes": 20000},
      "layers": [
        {"kind": "link_flap", "link": "tor0:spine0",
         "at_us": 40, "down_us": 80}
      ]
    }

All times are **microseconds of simulated time** (floats allowed); the
injector converts to integer nanoseconds at install.  Layer targets are
names: ``"a:b"`` for cables (either ordering), switch names for
reboot/storm layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

SPEC_VERSION = 1

#: Default routing-convergence delay after a liveness change (detection +
#: control-plane update), in microseconds.
DEFAULT_CONVERGE_US = 25.0


class ScenarioError(ValueError):
    """A fault scenario is malformed or targets nothing in the fabric."""


def _us(value, name: str, *, minimum: float = 0.0) -> float:
    """A JSON number (a bool is not one) >= ``minimum``, finite."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not minimum <= value < 1e308):
        raise ScenarioError(f"{name} must be a finite number >= {minimum}"
                            f", got {value!r}")
    return float(value)


def _fraction(value, name: str, *, one_allowed: bool) -> None:
    """Check a number in (0, 1), or in (0, 1] when ``one_allowed``."""
    number = _us(value, name)
    if not (0.0 < number < 1.0 or (one_allowed and number == 1.0)):
        bounds = "(0, 1]" if one_allowed else "(0, 1)"
        raise ScenarioError(f"{name} must be in {bounds}, got {value!r}")


def _direction(value) -> None:
    if value not in ("ab", "ba", "both"):
        raise ScenarioError(f"direction must be ab, ba or both, "
                            f"got {value!r}")


# ----------------------------------------------------------------------
# Fault layers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFlap:
    """Cable down for ``down_us``, optionally repeated every ``period_us``."""

    link: str
    at_us: float
    down_us: float
    repeat: int = 1
    period_us: Optional[float] = None

    def events(self) -> list[dict]:
        at = _us(self.at_us, "at_us")
        down = _us(self.down_us, "down_us", minimum=1e-3)
        if type(self.repeat) is not int or self.repeat < 1:
            raise ScenarioError(
                f"repeat must be an integer >= 1, got {self.repeat!r}")
        period = (_us(self.period_us, "period_us", minimum=down + 1e-3)
                  if self.period_us is not None else 2.0 * down)
        out = []
        for i in range(self.repeat):
            start = at + i * period
            out.append({"at_us": start, "kind": "link_down",
                        "link": self.link})
            out.append({"at_us": start + down, "kind": "link_up",
                        "link": self.link})
        return out


@dataclass(frozen=True)
class RateDegrade:
    """Cable runs at ``factor`` of nominal bandwidth for a while."""

    link: str
    at_us: float
    duration_us: float
    factor: float

    def events(self) -> list[dict]:
        at = _us(self.at_us, "at_us")
        dur = _us(self.duration_us, "duration_us", minimum=1e-3)
        _fraction(self.factor, "factor", one_allowed=False)
        return [
            {"at_us": at, "kind": "degrade", "link": self.link,
             "factor": self.factor},
            {"at_us": at + dur, "kind": "degrade_end", "link": self.link},
        ]


@dataclass(frozen=True)
class LatencyShift:
    """Extra propagation delay, optionally on one direction only."""

    link: str
    at_us: float
    duration_us: float
    extra_us: float
    direction: str = "both"  # "ab" | "ba" | "both"

    def events(self) -> list[dict]:
        at = _us(self.at_us, "at_us")
        dur = _us(self.duration_us, "duration_us", minimum=1e-3)
        extra = _us(self.extra_us, "extra_us", minimum=1e-3)
        _direction(self.direction)
        return [
            {"at_us": at, "kind": "latency_shift", "link": self.link,
             "extra_us": extra, "direction": self.direction},
            {"at_us": at + dur, "kind": "latency_end", "link": self.link,
             "direction": self.direction},
        ]


@dataclass(frozen=True)
class SwitchReboot:
    """Switch powers off (buffers drain as drops), links with it."""

    switch: str
    at_us: float
    down_us: float

    def events(self) -> list[dict]:
        at = _us(self.at_us, "at_us")
        down = _us(self.down_us, "down_us", minimum=1e-3)
        return [
            {"at_us": at, "kind": "reboot", "switch": self.switch},
            {"at_us": at + down, "kind": "recover", "switch": self.switch},
        ]


@dataclass(frozen=True)
class PfcStorm:
    """Switch spews PAUSE frames, freezing its neighbours' data class."""

    switch: str
    at_us: float
    duration_us: float

    def events(self) -> list[dict]:
        at = _us(self.at_us, "at_us")
        dur = _us(self.duration_us, "duration_us", minimum=1e-3)
        return [
            {"at_us": at, "kind": "pfc_storm", "switch": self.switch},
            {"at_us": at + dur, "kind": "storm_end",
             "switch": self.switch},
        ]


@dataclass(frozen=True)
class RandomLoss:
    """Cable silently drops a fraction of data packets for a while."""

    link: str
    at_us: float
    duration_us: float
    rate: float

    def events(self) -> list[dict]:
        at = _us(self.at_us, "at_us")
        dur = _us(self.duration_us, "duration_us", minimum=1e-3)
        _fraction(self.rate, "rate", one_allowed=True)
        return [
            {"at_us": at, "kind": "loss", "link": self.link,
             "rate": self.rate},
            {"at_us": at + dur, "kind": "loss_end", "link": self.link},
        ]


LAYER_KINDS = {
    "link_flap": LinkFlap,
    "degrade": RateDegrade,
    "latency_shift": LatencyShift,
    "switch_reboot": SwitchReboot,
    "pfc_storm": PfcStorm,
    "random_loss": RandomLoss,
}

FaultLayer = Union[LinkFlap, RateDegrade, LatencyShift, SwitchReboot,
                   PfcStorm, RandomLoss]

#: Every action kind a compiled spec may contain.
EVENT_KINDS = frozenset({
    "link_down", "link_up", "degrade", "degrade_end", "latency_shift",
    "latency_end", "reboot", "recover", "pfc_storm", "storm_end",
    "loss", "loss_end",
})

#: Action kinds that change liveness and therefore trigger a routing
#: reconvergence ``converge_us`` later.
RECONVERGE_KINDS = frozenset({"link_down", "link_up", "reboot", "recover"})


# ----------------------------------------------------------------------
# Scenario builder
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """Composable scenario: ``Scenario("x").add(layer).add(layer)``."""

    name: str
    converge_us: float = DEFAULT_CONVERGE_US
    workload: dict = field(default_factory=dict)
    layers: list = field(default_factory=list)

    def add(self, layer: FaultLayer) -> "Scenario":
        self.layers.append(layer)
        return self

    def compile(self) -> dict:
        """Flatten layers into the sorted, runnable campaign spec.

        Events sort by time with the layer/emission order as the stable
        tiebreak, so compilation is fully deterministic.
        """
        events: list[dict] = []
        for layer in self.layers:
            events.extend(layer.events())
        events.sort(key=lambda ev: ev["at_us"])
        return {"version": SPEC_VERSION, "name": self.name,
                "converge_us": _us(self.converge_us, "converge_us"),
                "workload": dict(self.workload), "events": events}


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse the declarative layer form (the ~20-line JSON file)."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    name = doc.get("name")
    if not name or not isinstance(name, str):
        raise ScenarioError("scenario needs a non-empty string 'name'")
    workload = doc.get("workload", {})
    if not isinstance(workload, dict):
        raise ScenarioError("'workload' must be an object")
    scenario = Scenario(
        name=name,
        converge_us=doc.get("converge_us", DEFAULT_CONVERGE_US),
        workload=dict(workload))
    layers = doc.get("layers", [])
    if not isinstance(layers, list):
        raise ScenarioError("'layers' must be a list")
    for i, layer_doc in enumerate(layers):
        if not isinstance(layer_doc, dict) or "kind" not in layer_doc:
            raise ScenarioError(f"layer {i} needs a 'kind' field")
        kind = layer_doc["kind"]
        cls = LAYER_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ScenarioError(
                f"layer {i}: unknown kind {kind!r} "
                f"(expected one of {sorted(LAYER_KINDS)})")
        params = {k: v for k, v in layer_doc.items() if k != "kind"}
        try:
            layer = cls(**params)
            layer.events()          # field checks, named by layer here
        except (TypeError, ScenarioError) as exc:
            raise ScenarioError(f"layer {i} ({kind}): {exc}") from None
        scenario.add(layer)
    return scenario


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read a declarative scenario JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(doc)


def compiled_spec(source: Union[Scenario, dict]) -> dict:
    """Normalise builder / layer-form / compiled-form input to compiled.

    Accepts a :class:`Scenario`, a layer-form dict (has ``layers``), or
    an already-compiled dict (has ``events``), and validates the result.
    """
    if isinstance(source, Scenario):
        spec = source.compile()
    elif isinstance(source, dict) and "events" in source:
        spec = source
    elif isinstance(source, dict):
        spec = scenario_from_dict(source).compile()
    else:
        raise ScenarioError(
            f"cannot compile a {type(source).__name__} into a spec")
    validate_compiled(spec)
    return spec


def validate_compiled(spec: dict) -> None:
    """Structural validation of a compiled spec; raises ScenarioError."""
    if not isinstance(spec, dict):
        raise ScenarioError("compiled spec must be a dict")
    for key in ("name", "events"):
        if key not in spec:
            raise ScenarioError(f"compiled spec missing {key!r}")
    if spec.get("version", SPEC_VERSION) != SPEC_VERSION:
        raise ScenarioError(f"unsupported spec version {spec['version']}")
    if not isinstance(spec.get("workload", {}), dict):
        raise ScenarioError("'workload' must be an object")
    _us(spec.get("converge_us", 0.0), "converge_us")
    events = spec["events"]
    if not isinstance(events, list):
        raise ScenarioError("'events' must be a list")
    last = -1.0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ScenarioError(f"event {i} must be a dict")
        kind = ev.get("kind")
        if not isinstance(kind, str) or kind not in EVENT_KINDS:
            raise ScenarioError(f"event {i}: unknown kind {kind!r}")
        target_key = "switch" if kind in ("reboot", "recover",
                                          "pfc_storm", "storm_end") \
            else "link"
        try:  # and the payload the injector reads for this kind
            if not isinstance(ev.get(target_key), str):
                raise ScenarioError(f"missing {target_key!r} target")
            at = _us(ev.get("at_us"), "at_us")
            if kind == "degrade":
                _fraction(ev.get("factor"), "factor", one_allowed=False)
            elif kind == "loss":
                _fraction(ev.get("rate"), "rate", one_allowed=True)
            elif kind == "latency_shift":
                _us(ev.get("extra_us"), "extra_us", minimum=1e-3)
            if "direction" in ev:
                _direction(ev["direction"])
        except ScenarioError as exc:
            raise ScenarioError(f"event {i} ({kind}): {exc}") from None
        if at < last:
            raise ScenarioError(f"event {i}: events not time-sorted")
        last = at


def spec_duration_us(spec: dict) -> float:
    """Time of the last scheduled action (0 for an empty scenario)."""
    events: Iterable[dict] = spec.get("events", [])
    return max((ev["at_us"] for ev in events), default=0.0)
