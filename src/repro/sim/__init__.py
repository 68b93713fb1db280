"""Discrete-event simulation core (engine, events, RNG, traces)."""

from repro.sim.engine import MS, NS, SEC, US, SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.rng import SimRng
# Time-series types live in the observability layer now; re-exported here
# because rate/series helpers are part of the sim package's public API.
from repro.obs.timeseries import (RateMeter, TimeSeries, WindowedCounter,
                                  summarize)

__all__ = [
    "Simulator", "SimulationError", "Event", "SimRng",
    "TimeSeries", "WindowedCounter", "RateMeter", "summarize",
    "NS", "US", "MS", "SEC",
]
