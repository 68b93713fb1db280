"""Discrete-event simulation engine.

:class:`Simulator` is a **sparse calendar queue** (Brown, CACM 1988,
without the empty buckets).  Pending entries are grouped into fixed-width
time buckets, but only occupied buckets exist: a dict maps
``time >> shift`` to an unsorted list, and a heap of the occupied keys
says which bucket is next.  Claiming the next bucket is one ``heappop``
plus one ``dict.pop``; the claimed list becomes ``_window``, the one
ordered list of its window, and ``run()`` dispatches it with a plain
``for`` loop.  Queue entries are plain ``(time, seq, callback, arg)`` or
``(time, seq, callback, arg1, arg2)`` tuples.

The original single binary-heap engine lives on as the test oracle
(``tests/sim/heap_oracle.py``): the golden determinism tests run full
workloads on both and assert bit-identical ``(time, seq)`` execution
order.

Three invariants carry the calendar's correctness:

1. every entry in ``_window`` lies below ``_cur_end`` (the end of the
   last bucket claimed) and every entry in ``_buckets`` at or beyond it,
   so draining ``_window`` first and the smallest key next visits time in
   increasing order;
2. ``_order`` holds each key of ``_buckets`` exactly once — a key is
   pushed when its list is created and popped when the list is claimed;
3. ``_window`` is in ``(time, seq)`` order.  A bucket is appended in
   ``seq`` order, so one stable sort on time alone orders it; an entry
   scheduled into the open window has a larger ``seq`` than all of it, so
   ``insort_right`` on time puts it after every entry of the same time
   (and after the one being dispatched, whose time is ``now``).  The
   ``for`` loop's iterator therefore meets every late entry in the order
   the reference heap pops it.

There is no horizon and no compaction.  A dict has room for any key, so a
timer seconds ahead costs the same insert as a wake-up 100 ns ahead and is
never migrated.  Nothing is ever removed from the calendar: a cancelled
timer stays in its bucket and runs as a no-op when the clock reaches it.
Every timer of the model — send pacing, RTO, delayed ACK, DCQCN's two
clocks, ConWeave's reorder timeout — is armed with :meth:`Simulator.fire`
and a token (see there); cold one-shot callers (PFC, the fault injector,
the training loop, the Ideal oracle) use plain ``fire``.  The handle
returned by :meth:`Simulator.schedule` is a :class:`Timer` riding ``fire``.

All simulation time is expressed in **integer nanoseconds** — the
module-level constants :data:`NS`, :data:`US`, :data:`MS` and :data:`SEC`
convert other units into nanoseconds so call sites read naturally::

    sim.fire(5 * US, Port.pause_data, port)

Determinism contract
--------------------
Two runs with identical inputs and seeds execute the exact same event
sequence.  This requires (a) the ``seq`` tie-break, and (b) all randomness
flowing through :class:`repro.sim.rng.SimRng`.
"""

from __future__ import annotations

import heapq
from bisect import insort_right
from operator import itemgetter
from typing import Any, Callable, Optional

#: One nanosecond (the base time unit).
NS = 1
#: Nanoseconds per microsecond.
US = 1_000
#: Nanoseconds per millisecond.
MS = 1_000_000
#: Nanoseconds per second.
SEC = 1_000_000_000

#: Default calendar-bucket width.  Dominant event deltas are packet
#: serialization times (31 ns for an MTU at 400 Gbps, ~500 ns at 25 Gbps)
#: and the ~1 us link propagation delay, so 64 ns buckets keep a bucket's
#: sort small at high load while a sparse calendar pays per occupied
#: bucket, never per empty one.
DEFAULT_BUCKET_NS = 64

#: Sentinel "no bound" time, far beyond any simulated horizon (~146 y).
_FAR_FUTURE = 1 << 62

# Module-level alias: the scheduling entry points run once or twice per
# simulated packet, where ``heapq.heappush`` would cost a global plus an
# attribute load per call.
_heappush = heapq.heappush
#: Sort and bisect key of a calendar entry: its time.  Ties keep the
#: order they were appended in, which is ``seq`` order.
_time_of = itemgetter(0)


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. a negative delay)."""


class Timer:
    """Handle returned by :meth:`Simulator.schedule`.

    The calendar entry is ``fire(delay, Timer.run, timer)``; :meth:`cancel`
    turns it into a no-op that still runs when the clock reaches it.  A
    handle is never reused, so cancelling a spent timer is harmless.
    """

    __slots__ = ("callback", "args")

    def __init__(self, callback: Callable[..., Any], args: tuple) -> None:
        self.callback = callback
        self.args = args

    def run(self) -> None:
        self.callback(*self.args)

    def cancel(self) -> None:
        """Idempotent; drops the references so a cancelled entry pinned
        in the calendar does not keep packet graphs alive."""
        self.callback = _noop
        self.args = ()


def _noop() -> None:
    """Callback of a cancelled :class:`Timer`."""


class Simulator:
    """Event scheduler and simulation clock (sparse calendar queue).

    Parameters
    ----------
    bucket_ns:
        Width of one calendar bucket in nanoseconds (rounded up to a power
        of two so the bucket key is one shift).

    The module docstring describes ``_window``, ``_buckets`` and
    ``_order`` and the invariants between them.
    """

    __slots__ = (
        "now", "trace", "_shift", "_buckets", "_order",
        "_window", "_cur_end", "_seq", "_executed",
        "_running", "batches",
    )

    def __init__(self, *, bucket_ns: int = DEFAULT_BUCKET_NS) -> None:
        self.now: int = 0
        #: Optional per-event hook ``trace(time, seq, callback)`` invoked
        #: before each executed callback; used by the determinism tests.
        self.trace: Optional[Callable[[int, int, Callable], None]] = None

        self._shift = max(0, int(bucket_ns) - 1).bit_length()
        self._buckets: dict[int, list] = {}
        self._order: list[int] = []
        self._window: list = []
        self._cur_end = 0              # nothing claimed yet

        self._seq = 0
        self._executed = 0
        self._running = False
        #: Calendar buckets claimed by :meth:`run`, one per window — the
        #: unit of per-batch overhead (claim + sort).  The performance
        #: ledger reports it as the exact count ``sim.batches``.
        self.batches = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The two entry points differ only in the entry tuple they build;
    # the insert is repeated in each because a shared helper would cost
    # a Python call per simulated event.
    def fire(self, delay: int, callback: Callable[[Any], Any],
             arg: Any = None) -> None:
        """Schedule ``callback(arg)`` ``delay`` ns from now; no handle.

        The entry is a bare ``(time, seq, callback, arg)`` tuple and
        cannot be removed from the calendar.  Every event of the model is
        armed here or through :meth:`fire2`; serializer boundary wake-ups
        alone are 16–36 % of all events on the ledger's simulations.

        Caller contract: ``delay`` must be a non-negative **integer**
        (no ``int()`` coercion here — a float would silently break
        bucket indexing, so the sub-ns case raises instead).

        A cancellable timer rides it with a token instead of a handle:
        keep one int per timer, bump it on arm and on cancel (odd while
        armed), pass it as ``arg``, and return at once from the callback
        when it no longer equals the stored one.  Cancelling is then one
        increment and the cancelled entry runs as a no-op.  Compare
        tokens, not deadlines: a timer cancelled and re-armed in the same
        nanosecond leaves two entries due at the same time.
        ``SenderQp``, ``ReceiverQp``, ``Dcqcn`` and ConWeave's
        ``InOrderDest`` arm all their timers this way.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        if time < self._cur_end:
            insort_right(self._window, (time, seq, callback, arg),
                         key=_time_of)
        else:
            key = time >> self._shift
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, seq, callback, arg)]
                _heappush(self._order, key)
            else:
                bucket.append((time, seq, callback, arg))

    def fire2(self, delay: int, callback: Callable[[Any, Any], Any],
              arg1: Any, arg2: Any) -> None:
        """Two-argument :meth:`fire`: ``callback(arg1, arg2)``, no handle.

        Exists so packet delivery can dispatch straight into the peer
        device's ``receive(packet, port)`` without a per-packet bound
        trampoline in between — the entry is ``(time, seq, callback,
        arg1, arg2)`` and consumes one ``seq`` exactly like :meth:`fire`,
        so engines that use it stay in event-order lockstep with engines
        that do not.  Same caller contract as :meth:`fire`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        if time < self._cur_end:
            insort_right(self._window, (time, seq, callback, arg1, arg2),
                         key=_time_of)
        else:
            key = time >> self._shift
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, seq, callback, arg1, arg2)]
                _heappush(self._order, key)
            else:
                bucket.append((time, seq, callback, arg1, arg2))

    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any) -> Timer:
        """Run ``callback(*args)`` ``delay`` ns from now; the returned
        :class:`Timer` can cancel it.  The model's own timers use
        :meth:`fire` and a token instead, which keeps each handler's
        qualname in traces and profiles (this entry shows as
        ``Timer.run``)."""
        timer = Timer(callback, args)
        self.fire(int(delay), Timer.run, timer)
        return timer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` (absolute ns,
        inclusive); returns the number of events executed by this call.

        Either way the caller observes ``now == until``: when the queue
        drains before the bound the clock still advances to it.

        The drain is batched: claim a whole calendar bucket, sort it
        once on time, dispatch it in a tight loop.  Per-event cost drops
        three ways versus a pop-per-event loop:

        * one C-level ``list.sort`` per bucket, comparing bare ints,
          replaces a ``heappop`` (log-n tuple comparisons) per event;
        * the stop-bound comparison is hoisted to once per window — a
          window ending at or before the bound can never contain a late
          event, which is every window except possibly the final one of
          a bounded run; that one runs one entry at a time;
        * same-timestamp chains (port→switch→port hops of one packet
          wave) run back-to-back out of the list with no queue
          maintenance between them.

        Events scheduled *into* the window while it drains (a serializer
        boundary wake-up shorter than the remaining bucket, a zero-delay
        completion) are bisected into its list behind the dispatch
        position, so execution order is bit-identical to the reference
        engine.  A callback that raises propagates; the entries after it
        stay pending, in order, for a post-mortem or another ``run()``.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        # Local aliases for the per-event hot loop.
        heappop = heapq.heappop
        trace = self.trace
        buckets = self._buckets
        order = self._order
        shift = self._shift
        # A window ending at or before ``limit`` holds no late event.
        limit = (until if until is not None else _FAR_FUTURE) + 1
        batch = self._window
        try:
            while True:
                # A non-empty window here was left by a bounded stop or
                # a raise: it is already ordered and already counted.
                if not batch:
                    if not order:
                        # Queue drained before the bound: leave now ==
                        # until, same as the bounded-stop case below.
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    key = heappop(order)
                    batch = self._window = buckets.pop(key)
                    self._cur_end = (key + 1) << shift
                    if len(batch) > 1:
                        batch.sort(key=_time_of)
                    self.batches += 1
                if self._cur_end <= limit:
                    try:
                        for entry in batch:
                            self.now = entry[0]
                            if trace is not None:
                                trace(entry[0], entry[1], entry[2])
                            if len(entry) == 5:   # fire2() delivery entry
                                entry[2](entry[3], entry[4])
                            else:                 # fire() entry
                                entry[2](entry[3])
                    except BaseException:
                        # Keep the unexecuted tail pending; the entry that
                        # raised was consumed.
                        del batch[:batch.index(entry) + 1]
                        raise
                    # Counting once per window beats one increment per
                    # event: everything in the list ran.
                    executed += len(batch)
                    batch.clear()
                    continue
                # The window straddles the stop bound (only the last one
                # of a call can): run its entries at or before the bound
                # one at a time, late inserts included.  The rest stay in
                # ``_window``; every bucket lies at >= _cur_end > until.
                while batch and batch[0][0] < limit:
                    entry = batch.pop(0)
                    self.now = entry[0]
                    if trace is not None:
                        trace(entry[0], entry[1], entry[2])
                    if len(entry) == 5:
                        entry[2](entry[3], entry[4])
                    else:
                        entry[2](entry[3])
                    executed += 1
                if until > self.now:
                    self.now = until
                break
        finally:
            self._running = False
        self._executed += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued entries (cancelled timers included).

        Computed on demand — the hot path maintains no entry counter.
        Read from a callback, it also counts the entries of the window
        being drained that already ran: its list lets go of them when
        its last entry has run.
        """
        return (len(self._window)
                + sum(len(b) for b in self._buckets.values()))

    @property
    def executed(self) -> int:
        """Total events executed since construction."""
        return self._executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self.now}ns, pending={self.pending}, "
                f"executed={self.executed})")
