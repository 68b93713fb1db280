"""Event-handler wall-time profiling for the simulation engine.

:class:`repro.sim.engine.Simulator` (and the tests' reference engine)
exposes a ``trace`` hook invoked immediately before each callback runs.
The :class:`Profiler` rides that hook: at hook time it charges the
wall-clock interval since the *previous* hook to the previous callback,
then starts the clock for the new one.  The result is a histogram of
wall time per handler type (``Port._pump``, ``SenderQp._send_one``, ...)
— exactly the breakdown needed to aim the next perf PR.

The attribution is off by the engine's own dispatch overhead (popping the
next event is charged to the handler that preceded it), which is the
standard trade-off for hook-based profilers; relative shares remain
meaningful because dispatch cost is uniform across handler types.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass
class HandlerStats:
    """Aggregated wall time for one handler type."""

    name: str
    calls: int = 0
    total_s: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


class Profiler:
    """Wall-time-per-handler histogram driven by the engine trace hook."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.stats: dict[str, HandlerStats] = {}
        self._prev_key: str | None = None
        self._prev_clock = 0.0
        self._names: dict[object, str] = {}   # function -> qualname cache
        self._attached = False

    # ------------------------------------------------------------------
    def attach(self) -> "Profiler":
        if self.sim.trace is not None:
            raise RuntimeError("engine trace hook already in use")
        self.sim.trace = self._hook
        self._attached = True
        self._prev_key = None
        self._prev_clock = time.perf_counter()
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        self._flush(time.perf_counter())
        self.sim.trace = None
        self._attached = False

    def __enter__(self) -> "Profiler":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _hook(self, _time_ns: int, _seq: int, callback) -> None:
        now = time.perf_counter()
        self._flush(now)
        # Key on the function: a bound method is a transient object whose
        # id() is recycled for the next handler's, while the function
        # stays alive for as long as this cache refers to it.
        fn = getattr(callback, "__func__", callback)
        key = self._names.get(fn)
        if key is None:
            key = getattr(fn, "__qualname__", None) or repr(fn)
            self._names[fn] = key
        self._prev_key = key
        self._prev_clock = now

    def _flush(self, now: float) -> None:
        key = self._prev_key
        if key is None:
            return
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = HandlerStats(key)
        stats.calls += 1
        stats.total_s += now - self._prev_clock
        self._prev_key = None

    # ------------------------------------------------------------------
    def report(self, top: Optional[int] = None) -> dict:
        """JSON-friendly summary, handlers sorted by total time; only the
        ``top`` most expensive when given (``total_ms`` still covers
        every handler)."""
        total = sum(s.total_s for s in self.stats.values()) or 1.0
        rows = sorted(self.stats.values(), key=lambda s: -s.total_s)[:top]
        return {
            "handlers": [{
                "handler": s.name,
                "calls": s.calls,
                "total_ms": round(s.total_s * 1e3, 3),
                "mean_us": round(s.mean_us, 3),
                "share": round(s.total_s / total, 4),
            } for s in rows],
            "total_ms": round(total * 1e3, 3),
        }

    def format_table(self, top: Optional[int] = None) -> str:
        report = self.report(top)
        lines = [f"{'handler':<40} {'calls':>10} {'total ms':>10} "
                 f"{'mean µs':>9} {'share':>7}"]
        for row in report["handlers"]:
            lines.append(f"{row['handler']:<40} {row['calls']:>10} "
                         f"{row['total_ms']:>10.3f} {row['mean_us']:>9.3f} "
                         f"{row['share']:>6.1%}")
        lines.append(f"total profiled wall time: {report['total_ms']:.1f} ms")
        return "\n".join(lines)
