"""Time-series instrumentation.

Experiments need traces like "sending rate over time" (Fig. 1c) and
"retransmission ratio over time" (Fig. 1b).  :class:`TimeSeries` records raw
``(time, value)`` samples; :class:`WindowedCounter` accumulates event counts
and reports per-window rates; :class:`RateMeter` converts byte counts into a
bits-per-second series.

This module is the canonical home of these types (they once lived at
``repro.sim.trace``, removed after its deprecation window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

#: Nanoseconds per second (mirrors ``repro.sim.engine.SEC``; kept local so
#: the observability layer does not import the engine package).
SEC = 1_000_000_000


@dataclass
class TimeSeries:
    """Raw (time_ns, value) samples with simple summary statistics."""

    name: str = ""
    samples: List[Tuple[int, float]] = field(default_factory=list)

    def record(self, time_ns: int, value: float) -> None:
        self.samples.append((time_ns, value))

    def __len__(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        """Time-unweighted mean of the recorded values (0.0 if empty)."""
        if not self.samples:
            return 0.0
        return sum(v for _, v in self.samples) / len(self.samples)

    def time_weighted_mean(self) -> float:
        """Mean weighting each value by how long it was in force.

        The value recorded at ``t_i`` is assumed to hold until ``t_{i+1}``;
        the final sample gets zero weight.  Falls back to :meth:`mean` when
        fewer than two samples exist.
        """
        if len(self.samples) < 2:
            return self.mean()
        total = 0.0
        weight = 0
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
            dt = t1 - t0
            total += v * dt
            weight += dt
        if weight == 0:
            return self.mean()
        return total / weight


class WindowedCounter:
    """Counts events into fixed windows; reports per-window totals.

    Used for the Fig. 1b retransmission-ratio trace: one counter for
    retransmitted packets, one for all packets, ratio per window.
    """

    def __init__(self, window_ns: int) -> None:
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.window_ns = window_ns
        self._windows: dict[int, float] = {}

    def add(self, time_ns: int, amount: float = 1.0) -> None:
        self._windows[time_ns // self.window_ns] = (
            self._windows.get(time_ns // self.window_ns, 0.0) + amount)

    def total(self) -> float:
        return sum(self._windows.values())

    def series(self) -> List[Tuple[int, float]]:
        """Sorted ``(window_start_ns, count)`` pairs."""
        return [(idx * self.window_ns, count)
                for idx, count in sorted(self._windows.items())]

    @staticmethod
    def ratio_series(numerator: "WindowedCounter",
                     denominator: "WindowedCounter",
                     ) -> List[Tuple[int, float]]:
        """Per-window ``numerator/denominator`` where the denominator is
        nonzero.  Both counters must share a window size."""
        if numerator.window_ns != denominator.window_ns:
            raise ValueError("window sizes differ")
        den = dict(denominator.series())
        out = []
        for start, count in numerator.series():
            total = den.get(start, 0.0)
            if total > 0:
                out.append((start, count / total))
        return out


class RateMeter:
    """Accumulates bytes into windows and reports Gbps per window."""

    def __init__(self, window_ns: int) -> None:
        self._counter = WindowedCounter(window_ns)
        self.window_ns = window_ns

    def add_bytes(self, time_ns: int, nbytes: int) -> None:
        self._counter.add(time_ns, float(nbytes))

    def series_gbps(self) -> List[Tuple[int, float]]:
        scale = 8.0 * SEC / self.window_ns / 1e9
        return [(t, b * scale) for t, b in self._counter.series()]
