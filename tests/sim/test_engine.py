"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import MS, NS, SEC, US, SimulationError, Simulator
from tests.sim.heap_oracle import HeapSimulator


def test_time_constants():
    assert NS == 1
    assert US == 1_000
    assert MS == 1_000_000
    assert SEC == 1_000_000_000


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(5, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(5, inner)

        def inner():
            order.append(("inner", sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert order == [("outer", 10), ("inner", 15)]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(10, ran.append, 1)
        event.cancel()
        assert sim.run() == 1   # the entry still runs, as a no-op
        assert ran == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_one_of_many(self):
        sim = Simulator()
        ran = []
        keep = sim.schedule(10, ran.append, "keep")
        drop = sim.schedule(10, ran.append, "drop")
        drop.cancel()
        sim.run()
        assert ran == ["keep"]
        assert keep.args == ("keep",)

    def test_cancelling_a_spent_handle_spares_later_timers(self):
        # A handle is never recycled: cancelling one whose entry already
        # ran cannot reach an entry scheduled after it.
        sim = Simulator()
        ran = []
        spent = sim.schedule(10, ran.append, "a")
        sim.run()
        sim.schedule(10, ran.append, "b")
        spent.cancel()
        sim.run()
        assert ran == ["a", "b"]


class TestFire:
    def test_fire_runs_callback_with_arg(self):
        sim = Simulator()
        seen = []
        sim.fire(10, seen.append, "x")
        sim.run()
        assert seen == ["x"] and sim.now == 10

    def test_fire_orders_with_scheduled_events(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, "event@5")
        sim.fire(5, order.append, "fire@5")
        sim.fire(3, order.append, "fire@3")
        sim.schedule(7, order.append, "event@7")
        sim.run()
        # Ties break by schedule order across both entry kinds.
        assert order == ["fire@3", "event@5", "fire@5", "event@7"]

    def test_fire_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.fire(-1, lambda _: None)


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        ran = []
        sim.schedule(10, ran.append, "early")
        sim.schedule(100, ran.append, "late")
        sim.run(until=50)
        assert ran == ["early"]
        assert sim.now == 50
        sim.run()
        assert ran == ["early", "late"]

    def test_run_until_is_inclusive_inside_a_bucket(self):
        # 50 and 51 share a 64 ns bucket: the bound splits it, and late
        # inserts at the bound still run before the call returns.
        sim = Simulator()
        ran = []
        sim.schedule(50, ran.append, "event@50")
        sim.fire(50, lambda _: sim.fire(0, ran.append, "late@50"))
        sim.fire2(51, lambda a, _b: ran.append(a), "fire2@51", None)
        assert sim.run(until=50) == 3
        assert ran == ["event@50", "late@50"]
        assert sim.now == 50 and sim.pending == 1
        assert sim.run() == 1 and ran[-1] == "fire2@51"

    def test_run_until_advances_clock_when_queue_drains(self):
        # The queue empties before the bound: the caller must still
        # observe now == until, same as the early-break case.
        sim = Simulator()
        sim.schedule(10, lambda: None)
        assert sim.run(until=500) == 1
        assert sim.now == 500
        sim = Simulator()
        assert sim.run(until=300) == 0   # nothing scheduled at all
        assert sim.now == 300

    def test_pending_counts_live_and_bucketed_entries(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)           # first bucket
        sim.fire(20, lambda _: None)             # same bucket, fire entry
        sim.schedule(10**9, lambda: None)        # a bucket a second away
        assert sim.pending == 3
        sim.run(until=15)                        # claims the first bucket
        assert sim.pending == 2                  # one live, one bucketed
        sim.schedule(1, lambda: None).cancel()   # tombstones still count
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_executed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.executed == 7

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1, reenter)
        sim.run()
        assert len(errors) == 1

    def test_run_returns_executed_count(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        assert sim.run() == 2


class TestRaiseMidBatch:
    """A callback that raises propagates out of ``run()`` and leaves the
    queue as the reference heap engine leaves it: every later entry
    still pending, in order, and a second ``run()`` picks up there."""

    @staticmethod
    def _program(sim):
        log = []

        def note(label):
            log.append((sim.now, label))

        def early(label):
            note(label)
            sim.fire(5, note, "late@15")          # into the open window

        def boom(label):
            note(label)
            sim.fire(0, note, "late@boom")        # same time, then raise
            raise RuntimeError(label)

        sim.fire(10, early, "a")
        sim.fire(20, note, "b")
        sim.fire(20, boom, "boom")
        sim.fire(20, note, "c")
        sim.fire(30, note, "d")
        sim.fire2(40, lambda label, _: note(label), "e", None)
        sim.fire(200, note, "next bucket")
        return log

    @pytest.mark.parametrize("until", [None, 25, 35])
    def test_tail_stays_pending_and_resumes_in_heap_order(self, until):
        sim, heap = Simulator(), HeapSimulator()
        log, heap_log = self._program(sim), self._program(heap)
        for engine in (sim, heap):
            with pytest.raises(RuntimeError, match="boom"):
                engine.run(until=until)
        assert log == heap_log == [(10, "a"), (15, "late@15"), (20, "b"),
                                   (20, "boom")]
        assert sim.now == heap.now == 20
        # c, late@boom, d, e and the next bucket; the raiser is gone.
        assert sim.pending == heap.pending == 5
        assert sim.executed == heap.executed

        ran = sim.run()
        assert ran == heap.run() == 5
        assert log == heap_log
        assert log[4:] == [(20, "c"), (20, "late@boom"), (30, "d"),
                           (40, "e"), (200, "next bucket")]
        assert sim.executed == heap.executed
        assert sim.pending == heap.pending == 0

    def test_raise_in_a_resumed_window(self):
        # The window left over by the first raise raises again: the
        # second run() keeps the same contract.
        def program(sim):
            log = []

            def boom(label):
                log.append((sim.now, label))
                raise RuntimeError(label)

            for time, label in ((10, "a"), (10, "x1"), (12, "b"),
                                (12, "x2"), (13, "c")):
                sim.fire(time, boom if label[0] == "x" else log.append,
                         label if label[0] == "x" else (time, label))
            return log

        sim, heap = Simulator(), HeapSimulator()
        log, heap_log = program(sim), program(heap)
        for engine in (sim, heap):
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    engine.run()
            assert engine.pending == 1
            assert engine.run() == 1
        assert log == heap_log == [(10, "a"), (10, "x1"), (12, "b"),
                                   (12, "x2"), (13, "c")]
        assert sim.executed == heap.executed


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def tick(n):
            log.append((sim.now, n))
            if n < 20:
                sim.schedule(n % 3 + 1, tick, n + 1)

        sim.schedule(0, tick, 0)
        sim.run()
        return log

    assert build() == build()
