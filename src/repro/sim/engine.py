"""Discrete-event simulation engine.

:class:`Simulator` is a **sparse calendar queue**.  Pending entries are
grouped into fixed-width time buckets, but only occupied buckets exist: a
dict maps ``time >> shift`` to an unsorted list, a heap of the occupied
keys says which bucket is next, and one more heap (``_live``) takes the
entries that arrive inside the window already being drained.  Claiming
the next bucket is one ``heappop`` plus one ``dict.pop``; the bucket is
sorted once and dispatched in a tight loop.  Queue entries are plain
``(time, seq, ...)`` tuples so every ordering comparison happens in C
instead of calling ``Event.__lt__``, and executed
:class:`~repro.sim.events.Event` objects are recycled through a free list.

The original single binary-heap engine lives on as the test oracle
(``tests/sim/heap_oracle.py``): the golden determinism tests run full
workloads on both and assert bit-identical ``(time, seq)`` execution
order.

Three invariants carry the calendar's correctness:

1. every entry in ``_live`` lies below ``_cur_end`` (the end of the last
   bucket claimed) and every entry in ``_buckets`` at or beyond it, so
   draining ``_live`` first and the smallest key next visits time in
   increasing order;
2. ``_order`` holds each key of ``_buckets`` exactly once — a key is
   pushed when its list is created and popped when the list is claimed;
3. whatever is executed comes out of a ``(time, seq)``-sorted batch or the
   ``_live`` heap, whichever front is smaller, which is the order the
   reference heap pops.

There is no horizon and no compaction.  A dict has room for any key, so a
timer seconds ahead costs the same insert as a wake-up 100 ns ahead and is
never migrated.  A cancelled :class:`~repro.sim.events.Event` stays in
its bucket until the clock reaches it and is dropped there.  No per-QP
timer leaves such a tombstone any more: send pacing, RTO, delayed ACK and
DCQCN's two clocks are armed with :meth:`Simulator.fire` and a token (see
there), so a cancelled one runs as a no-op.  Only cold callers (fault
injector, PFC, training loop, ConWeave, the Ideal oracle) still
``schedule``.

All simulation time is expressed in **integer nanoseconds** — the
module-level constants :data:`NS`, :data:`US`, :data:`MS` and :data:`SEC`
convert other units into nanoseconds so call sites read naturally::

    sim.schedule(5 * US, port.dequeue)

Determinism contract
--------------------
Two runs with identical inputs and seeds execute the exact same event
sequence.  This requires (a) the ``seq`` tie-break, and (b) all randomness
flowing through :class:`repro.sim.rng.SimRng`.

Pooling invariant
-----------------
Executed events are returned to a free list and may be reused by a later
``schedule``.  A caller that keeps the returned handle must drop (or null
out) the reference once the callback has fired; calling
:meth:`Event.cancel` on a handle whose event already ran may cancel an
unrelated future event once the object has been recycled.  Two callers
keep a handle — ConWeave's reorder timer and the performance ledger's
``sim.cancel_ns`` micro-benchmark — and both clear it in the callback's
first line (or never reuse it).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Any, Callable, Optional

from repro.sim.events import Event

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

#: Ceiling on the Event free list (objects, not bytes).
_EVENT_POOL_CAP = 8192
#: Sentinel "no bound" time, far beyond any simulated horizon (~146 y).
_FAR_FUTURE = 1 << 62

# Module-level alias: the scheduling entry points run once or twice per
# simulated packet, where ``heapq.heappush`` would cost a global plus an
# attribute load per call.
_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class Simulator:
    """Event scheduler and simulation clock (sparse calendar queue).

    Parameters
    ----------
    bucket_ns:
        Width of one calendar bucket in nanoseconds (rounded up to a power
        of two so the bucket key is one shift).

    The module docstring describes ``_live``, ``_buckets`` and ``_order``
    and the invariants between them.
    """

    __slots__ = (
        "now", "trace", "_shift", "_buckets", "_order",
        "_live", "_cur_end", "_event_pool", "_seq", "_executed",
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
        self._live: list = []
        self._cur_end = 0              # nothing claimed yet

        self._event_pool: list[Event] = []
        self._seq = 0
        self._executed = 0
        self._running = False
        #: Calendar buckets claimed whole by :meth:`run` — the
        #: unit of per-batch overhead (claim + sort).  The performance
        #: ledger reports it as the exact count ``sim.batches``.
        self.batches = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    # The three entry points differ only in the entry tuple they build;
    # the insert is repeated in each because a shared helper would cost
    # a Python call per simulated event.
    def schedule(self, delay: int, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + int(delay)
        seq = self._seq
        self._seq = seq + 1
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, callback, args)
        if time < self._cur_end:
            _heappush(self._live, (time, seq, event))
        else:
            key = time >> self._shift
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, seq, event)]
                _heappush(self._order, key)
            else:
                bucket.append((time, seq, event))
        return event

    def fire(self, delay: int, callback: Callable[[Any], Any],
             arg: Any = None) -> None:
        """Fire-and-forget schedule: no :class:`Event`, no handle.

        The entry is a bare ``(time, seq, callback, arg)`` tuple and the
        callback runs as ``callback(arg)``; it cannot be cancelled.  This
        is the per-packet hot path (serializer boundary wake-ups alone
        are 16–36 % of all events on the ledger's simulations), where
        skipping the Event pool round-trip is worth a branch in the run
        loop.

        Caller contract: ``delay`` must be a non-negative **integer**
        (no ``int()`` coercion here — a float would silently break
        bucket indexing, so the sub-ns case raises instead).

        A cancellable timer rides it with a token instead of a handle:
        keep one int per timer, bump it on arm and on cancel (odd while
        armed), pass it as ``arg``, and return at once from the callback
        when it no longer equals the stored one.  Cancelling is then one
        increment and the cancelled entry runs as a no-op; it consumes the
        one ``seq`` ``schedule`` would have, so real events keep their
        ``(time, seq)``.  Compare tokens, not deadlines: a timer
        cancelled and re-armed in the same nanosecond leaves two entries
        due at the same time.  ``SenderQp``, ``ReceiverQp`` and ``Dcqcn``
        arm all their timers this way.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        if time < self._cur_end:
            _heappush(self._live, (time, seq, callback, arg))
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
            _heappush(self._live, (time, seq, callback, arg1, arg2))
        else:
            key = time >> self._shift
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, seq, callback, arg1, arg2)]
                _heappush(self._order, key)
            else:
                bucket.append((time, seq, callback, arg1, arg2))

    def schedule_at(self, time: int, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute time."""
        time = int(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}")
        return self.schedule(time - self.now, callback, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until`` (absolute ns,
        inclusive); returns the number of events executed by this call.

        Either way the caller observes ``now == until``: when the queue
        drains before the bound the clock still advances to it.

        The drain is batched: claim a whole calendar bucket, sort it
        once, dispatch it in a tight loop.  Per-event cost drops three
        ways versus a pop-per-event loop:

        * one C-level ``list.sort`` per bucket replaces a ``heappop``
          (log-n sifts) per event;
        * the stop-bound comparison is hoisted to once per bucket — a
          bucket whose window ends at or before the bound can never
          contain a late event, which is every bucket except possibly
          the final one of a bounded run;
        * same-timestamp chains (port→switch→port hops of one packet
          wave) run back-to-back out of the sorted batch with no queue
          maintenance between them.

        Events scheduled *into* the claimed window while it drains (a
        serializer boundary wake-up shorter than the remaining bucket,
        a zero-delay completion) land in a fresh ``live`` heap that the
        drain merges in ``(time, seq)`` order, so execution order is
        bit-identical to the reference engine.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        # Local aliases for the per-event hot loop.
        heappop = heapq.heappop
        trace = self.trace
        pool = self._event_pool
        pool_append = pool.append
        buckets = self._buckets
        order = self._order
        shift = self._shift
        # A window ending at or before ``limit`` holds no late event.
        limit = (until if until is not None else _FAR_FUTURE) + 1
        cur_end = self._cur_end
        try:
            while True:
                batch = self._live
                if not batch:
                    if not order:
                        # Queue drained before the bound: leave now ==
                        # until, same as the bounded-stop case below.
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    key = heappop(order)
                    batch = buckets.pop(key)
                    cur_end = self._cur_end = (key + 1) << shift
                batch.sort()
                if cur_end <= limit:
                    # Claim the bucket: late inserts into the still-open
                    # window go to a fresh heap we merge from.
                    self._live = live = []
                    self.batches += 1
                else:
                    # The window straddles the stop bound (only the last
                    # one of a call can): run the entries at or before it.
                    # The rest stay live — sorted, hence a valid heap —
                    # and every bucket lies at >= _cur_end > until.
                    cut = bisect_left(batch, (limit,))
                    self._live = live = batch[cut:]
                    if not cut:
                        if until is not None and until > self.now:
                            self.now = until
                        break
                    del batch[cut:]
                pos = 0
                n = len(batch)
                merged = 0   # late inserts drained from ``live``
                skipped = 0  # lazily-cancelled Event entries
                try:
                    while pos < n:
                        entry = batch[pos]
                        if live and live[0] < entry:
                            entry = heappop(live)
                            merged += 1
                        else:
                            pos += 1
                        ln = len(entry)
                        if ln == 5:           # fire2() delivery entry
                            self.now = entry[0]
                            if trace is not None:
                                trace(entry[0], entry[1], entry[2])
                            entry[2](entry[3], entry[4])
                        elif ln == 4:         # fire() wake-up entry
                            self.now = entry[0]
                            if trace is not None:
                                trace(entry[0], entry[1], entry[2])
                            entry[2](entry[3])
                        else:                 # full Event entry
                            event = entry[2]
                            if event.cancelled:
                                skipped += 1
                                event.args = ()
                                if len(pool) < _EVENT_POOL_CAP:
                                    pool_append(event)
                                continue
                            self.now = entry[0]
                            if trace is not None:
                                trace(entry[0], entry[1], event.callback)
                            event.callback(*event.args)
                            event.callback = None
                            event.args = ()
                            if len(pool) < _EVENT_POOL_CAP:
                                pool_append(event)
                    # Counting once per batch beats one increment per
                    # event: everything consumed ran except cancellations.
                    executed += n + merged - skipped
                except BaseException:
                    # Restore the unexecuted tail so a callback raising
                    # mid-batch leaves the queue intact for post-mortems.
                    # The entry that raised was consumed but does not
                    # count as executed.
                    executed += pos + merged - skipped - 1
                    live.extend(batch[pos:])
                    heapq.heapify(live)
                    raise
                # Batch done; late inserts still in ``live`` (and the
                # tail of a straddling bucket) are the next batch.
        finally:
            self._running = False
        self._executed += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued entries (including lazily-cancelled ones).

        Computed on demand — the hot path maintains no entry counter.
        """
        return (len(self._live)
                + sum(len(b) for b in self._buckets.values()))

    @property
    def executed(self) -> int:
        """Total events executed since construction."""
        return self._executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self.now}ns, pending={self.pending}, "
                f"executed={self.executed})")
