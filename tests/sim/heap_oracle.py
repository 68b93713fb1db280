"""Reference engine for the determinism tests: one binary heap.

Moved out of ``repro.sim.engine`` — the simulator runs on the calendar
queue only; this class stays as the executable oracle the
golden/property/determinism tests compare against (inject it with
``Network(config, sim=HeapSimulator())``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.engine import SimulationError, Timer


class Event:
    """One heap entry: ``callback(*args)`` due at ``time``, ordered by
    ``(time, seq)`` through a Python-level ``__lt__``."""

    __slots__ = ("time", "seq", "callback", "args")

    def __init__(self, time: int, seq: int,
                 callback: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class HeapSimulator:
    """Reference engine: one binary heap ordered by ``(time, seq)``.

    The original implementation, kept (plus the drain-to-``until`` fix) so
    the calendar engine's execution order can be A/B-checked against it.
    It allocates a fresh :class:`Event` per entry and pays a Python-level
    ``__lt__`` call for every heap comparison; its ordering code is the
    seed engine's, unchanged, because that is what it vouches for.
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
    def _push(self, delay: int, callback: Callable[..., Any],
              args: tuple) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._heap, Event(self.now + int(delay), self._seq,
                                         callback, args))
        self._seq += 1

    def fire(self, delay: int, callback: Callable[[Any], Any],
             arg: Any = None) -> None:
        """``callback(arg)`` ``delay`` ns from now; consumes one ``seq``
        exactly as :meth:`Simulator.fire` does."""
        self._push(delay, callback, (arg,))

    def fire2(self, delay: int, callback: Callable[[Any, Any], Any],
              arg1: Any, arg2: Any) -> None:
        """Two-argument fire (API parity with :class:`Simulator`)."""
        self._push(delay, callback, (arg1, arg2))

    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any) -> Timer:
        """A cancellable :class:`Timer` riding :meth:`fire`, as in
        :meth:`Simulator.schedule`: a cancelled one runs as a no-op."""
        timer = Timer(callback, args)
        self.fire(delay, Timer.run, timer)
        return timer

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
        """Number of heap entries (cancelled timers included)."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Total events executed since construction."""
        return self._executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HeapSimulator(now={self.now}ns, pending={self.pending}, "
                f"executed={self.executed})")
