"""Unit tests for the heap oracle's entry and the engine's timer handle."""

from repro.sim.engine import Simulator, Timer
from tests.sim.heap_oracle import Event


class TestOrdering:
    def test_time_orders_first(self):
        early = Event(10, 5, lambda: None, ())
        late = Event(20, 1, lambda: None, ())
        assert early < late
        assert not late < early

    def test_seq_breaks_ties(self):
        first = Event(10, 1, lambda: None, ())
        second = Event(10, 2, lambda: None, ())
        assert first < second


class TestCancel:
    def test_cancel_releases_references(self):
        """A cancelled timer stays in the calendar until the clock
        reaches it, so it must not keep packet graphs alive."""
        payload = object()
        ran = []
        timer = Simulator().schedule(5, ran.append, payload)
        timer.cancel()
        assert timer.args == ()
        assert timer.callback != ran.append
        # The callback is swapped for a no-op and stays callable.
        timer.run()
        assert ran == []

    def test_double_cancel_safe(self):
        ran = []
        timer = Timer(ran.append, (1,))
        timer.cancel()
        timer.cancel()
        timer.run()
        assert ran == [] and timer.args == ()
