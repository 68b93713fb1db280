"""Reference engine for the determinism tests: one binary heap.

Moved out of ``repro.sim.engine`` — the simulator runs on the calendar
queue only; this class stays as the executable oracle the
golden/property/determinism tests compare against (inject it with
``Network(config, sim=HeapSimulator())``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.engine import SimulationError
from repro.sim.events import Event


class HeapSimulator:
    """Reference engine: one binary heap ordered by ``(time, seq)``.

    The original implementation, kept (plus the drain-to-``until`` fix) so
    the calendar engine's execution order can be A/B-checked against it.
    Prefer :class:`Simulator` everywhere else; this one allocates a fresh
    :class:`Event` per schedule and pays a Python-level ``__lt__`` call
    for every heap comparison.  Deliberately *not* micro-optimised (no
    ``__slots__``, no inlining): it is the measurement baseline.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self.trace: Optional[Callable[[int, int, Callable], None]] = None
        self._heap: list[Event] = []
        self._seq = 0
        self._executed = 0
        self._running = False
        self.batches = 0  # API parity; the heap engine never batches

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + int(delay), callback, *args)

    def fire(self, delay: int, callback: Callable[[Any], Any],
             arg: Any = None) -> None:
        """Fire-and-forget schedule (API parity with :class:`Simulator`).

        The seed engine has only Events, so this simply schedules one;
        the ``seq`` consumed here keeps both engines' sequence counters
        in lockstep, which the golden determinism test relies on.
        """
        self.schedule(delay, callback, arg)

    def fire2(self, delay: int, callback: Callable[[Any, Any], Any],
              arg1: Any, arg2: Any) -> None:
        """Two-argument fire (API parity with :class:`Simulator`)."""
        self.schedule(delay, callback, arg1, arg2)

    def schedule_at(self, time: int, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}")
        event = Event(int(time), self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` (absolute ns)."""
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and event.time > until:
                    if until > self.now:
                        self.now = until
                    break
                heapq.heappop(self._heap)
                self.now = event.time
                if self.trace is not None:
                    self.trace(event.time, event.seq, event.callback)
                event.callback(*event.args)
                executed += 1
            if not self._heap and until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
        self._executed += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of heap entries (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Total events executed since construction."""
        return self._executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HeapSimulator(now={self.now}ns, pending={self.pending}, "
                f"executed={self.executed})")
