"""Property tests (hypothesis) for the sparse calendar engine.

An entry lands in one of two places — the ordered list of the window
being drained (bisected in on time) or a future bucket in the dict — and
moves at most once, when its bucket is claimed and sorted on time.
These tests generate random schedules that straddle every boundary (same
bucket, next bucket, microseconds, the DCQCN/RTO timer range, seconds)
and the ties both steps rest on (zero-delay and same-timestamp inserts
into a window that already holds entries at that time), and assert the
one property everything else rests on: the calendar engine executes the
exact ``(time, seq)`` sequence the reference heap engine does.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import DEFAULT_BUCKET_NS, MS, SEC, Simulator, US
from tests.sim.heap_oracle import HeapSimulator

#: Bands: same bucket, neighbouring buckets, packet/propagation scale,
#: timer scale (DCQCN 55 us, RTO 400 us and up), and seconds.
delays = st.one_of(
    st.integers(0, 2 * DEFAULT_BUCKET_NS),
    st.integers(0, 50 * US),
    st.integers(50 * US, 2 * MS),
    st.integers(0, 3 * SEC),
)

#: One scheduling action: (delay, kind) with kind 0 = ``schedule``,
#: 1 = ``fire``, 2 = ``fire2``, 3 = ``schedule`` then cancel some
#: earlier still-pending handle (chosen by ``delay``).
actions = st.tuples(delays, st.integers(0, 3))


def _run_program(sim, initial, respawns, drive=None):
    """Execute one generated schedule program; return the event log.

    ``initial`` seeds the queue; each executed callback consumes one
    entry of ``respawns`` to schedule a follow-up (inserts *during*
    drain, including into the window currently being drained).  Handles
    are dropped when their event runs, as the pooling invariant demands,
    so a cancel only ever hits a pending event.  ``drive(sim, log)``
    runs the simulation (default: one ``sim.run()``).
    """
    log = []
    sim.trace = lambda time, seq, callback: log.append((time, seq))
    pending = {}                  # label -> live handle
    todo = iter(enumerate(respawns))

    def act(label, delay, kind):
        if kind == 1:
            sim.fire(delay, callback, label)
        elif kind == 2:
            sim.fire2(delay, callback2, label, None)
        else:
            if kind == 3 and pending:
                victim = sorted(pending)[delay % len(pending)]
                pending.pop(victim).cancel()
            pending[label] = sim.schedule(delay, callback, label)

    def callback(label):
        pending.pop(label, None)
        i, step = next(todo, (None, None))
        if step is not None:
            act(("respawn", i), *step)

    def callback2(label, _unused):
        callback(label)

    for i, (delay, kind) in enumerate(initial):
        act(("init", i), delay, kind)
    if drive is None:
        sim.run()
    else:
        drive(sim, log)
    return log


@settings(max_examples=80, deadline=None)
@given(initial=st.lists(actions, min_size=1, max_size=40),
       respawns=st.lists(actions, max_size=40))
def test_calendar_matches_heap_for_random_programs(initial, respawns):
    calendar_log = _run_program(Simulator(), initial, respawns)
    heap_log = _run_program(HeapSimulator(), initial, respawns)
    assert calendar_log == heap_log


@settings(max_examples=40, deadline=None)
@given(bucket_ns=st.integers(1, 256),
       initial=st.lists(st.tuples(st.integers(0, 50_000),
                                  st.integers(0, 3)),
                        min_size=1, max_size=40),
       respawns=st.lists(st.tuples(st.integers(0, 50_000),
                                   st.integers(0, 3)), max_size=20))
def test_order_holds_for_tiny_geometries(bucket_ns, initial, respawns):
    """Order does not depend on the bucket width (1 ns buckets make every
    timestamp its own bucket, 256 ns ones pack several hops together)."""
    small_log = _run_program(Simulator(bucket_ns=bucket_ns), initial,
                             respawns)
    heap_log = _run_program(HeapSimulator(), initial, respawns)
    assert small_log == heap_log


@settings(max_examples=40, deadline=None)
@given(initial=st.lists(actions, min_size=1, max_size=40),
       respawns=st.lists(actions, max_size=40),
       slices=st.lists(delays, max_size=12))
def test_bounded_run_slices_match_run_alone(initial, respawns, slices):
    """Any sequence of bounded runs executes what one ``run()`` does —
    a bound that splits a bucket leaves the rest of it live — and each
    stops exactly where the reference heap's does."""
    def drive(sim, log):
        for advance in slices:
            ran = sim.run(until=sim.now + advance)
            log.append(("slice", ran, sim.now))
        sim.run()

    def events(log):
        return [entry for entry in log if entry[0] != "slice"]

    sliced_log = _run_program(Simulator(), initial, respawns, drive)
    plain_log = _run_program(Simulator(), initial, respawns)
    assert events(sliced_log) == plain_log
    assert sliced_log == _run_program(HeapSimulator(), initial, respawns,
                                      drive)


#: Timestamps inside one or two default buckets, few enough that a
#: generated window holds several entries at each.
tie_times = st.sampled_from([0, 1, 7, 31, 63, 64, 65, 127])


@settings(max_examples=80, deadline=None)
@given(initial=st.lists(st.tuples(tie_times, st.integers(1, 2)),
                        min_size=1, max_size=30),
       respawns=st.lists(st.tuples(tie_times, st.integers(1, 2),
                                   st.integers(0, 3)), max_size=40))
def test_late_inserts_tie_with_entries_already_in_the_window(initial,
                                                            respawns):
    """Each executed entry schedules up to three more at an absolute time
    drawn from a few timestamps — ``delay = max(0, target - now)`` — so
    late inserts are zero-delay (at ``now``, behind the entry being
    dispatched and every other entry at ``now``) or land on a later
    timestamp the window already holds.  Stable time-only order plus
    ``insort_right`` must reproduce the heap's ``seq`` tie-break."""

    def program(sim):
        log = []
        sim.trace = lambda time, seq, callback: log.append((time, seq))
        todo = iter(respawns)

        def spawn(target, kind):
            delay = max(0, target - sim.now)
            if kind == 1:
                sim.fire(delay, callback, None)
            else:
                sim.fire2(delay, callback2, None, None)

        def callback(_label):
            step = next(todo, None)
            if step is not None:
                target, kind, fan_out = step
                for _ in range(fan_out):
                    spawn(target, kind)

        def callback2(label, _unused):
            callback(label)

        for target, kind in initial:
            spawn(target, kind)
        sim.run()
        return log

    assert program(Simulator()) == program(HeapSimulator())


@settings(max_examples=20, deadline=None)
@given(period_us=st.sampled_from([55, 400, 4000]),
       rearm_every_ns=st.integers(200, 5_000),
       rounds=st.integers(2_000, 6_000))
def test_timer_churn_keeps_pending_bounded(period_us, rearm_every_ns,
                                           rounds):
    """Cancel + re-arm churn at DCQCN (55 us) and RTO (400 us, 4 ms)
    cadence: a tombstone is dropped when the clock reaches it, so
    ``pending`` never exceeds one timer period's worth of re-arms —
    with no compaction pass anywhere."""
    sim = Simulator()
    period = period_us * US
    timer = [sim.schedule(period, lambda: None)]
    peak = [0]

    def rearm(left):
        timer[0].cancel()
        timer[0] = sim.schedule(period, lambda: None)
        peak[0] = max(peak[0], sim.pending)
        if left:
            sim.fire(rearm_every_ns, rearm, left - 1)

    sim.fire(rearm_every_ns, rearm, rounds)
    sim.run()
    # Tombstones younger than one period, the live timer, the driver.
    assert peak[0] <= period // rearm_every_ns + 3
    assert sim.pending == 0
