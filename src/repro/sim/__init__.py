"""Discrete-event simulation core (engine, timers, RNG)."""
