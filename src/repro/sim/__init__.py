"""Discrete-event simulation core (engine, timers, RNG)."""

from repro.sim.engine import (MS, NS, SEC, US, SimulationError, Simulator,
                              Timer)
from repro.sim.rng import SimRng

__all__ = [
    "Simulator", "SimulationError", "Timer", "SimRng",
    "NS", "US", "MS", "SEC",
]
