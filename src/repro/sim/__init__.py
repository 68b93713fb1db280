"""Discrete-event simulation core (engine, events, RNG)."""

from repro.sim.engine import MS, NS, SEC, US, SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.rng import SimRng

__all__ = [
    "Simulator", "SimulationError", "Event", "SimRng",
    "NS", "US", "MS", "SEC",
]
