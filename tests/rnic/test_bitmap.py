"""Unit + property tests for the OOO reception tracker."""

from hypothesis import given, strategies as st

from repro.rnic.bitmap import OooTracker


class TestOooTracker:
    def test_empty(self):
        tracker = OooTracker()
        assert len(tracker) == 0
        assert tracker.smallest() is None
        assert 5 not in tracker

    def test_add_and_contains(self):
        tracker = OooTracker()
        tracker.add(7)
        assert 7 in tracker
        assert len(tracker) == 1

    def test_advance_over_contiguous_run(self):
        tracker = OooTracker()
        for psn in (1, 2, 3, 5):
            tracker.add(psn)
        # ePSN=0 packet arrives: advance consumes 1,2,3 and stops at 4.
        assert tracker.advance(1) == 4
        assert 5 in tracker
        assert len(tracker) == 1

    def test_advance_with_no_stored_psns(self):
        tracker = OooTracker()
        assert tracker.advance(10) == 10

    def test_smallest(self):
        tracker = OooTracker()
        tracker.add(9)
        tracker.add(4)
        assert tracker.smallest() == 4


@given(st.sets(st.integers(min_value=1, max_value=200)))
def test_advance_returns_first_gap(received):
    """Property: advance(1) lands exactly on the smallest missing PSN."""
    tracker = OooTracker()
    for psn in received:
        tracker.add(psn)
    expected = 1
    while expected in received:
        expected += 1
    assert tracker.advance(1) == expected
    # Everything below the returned ePSN was consumed.
    assert all(p >= expected for p in
               [tracker.smallest()] if tracker.smallest() is not None)


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                unique=True))
def test_interleaved_adds_and_advances_match_reference(psns):
    """Property: tracker behaves like a reference set-based receiver when
    PSNs 0..n arrive in arbitrary order."""
    tracker = OooTracker()
    epsn = 0
    delivered = set()
    for psn in psns:
        if psn == epsn:
            delivered.add(psn)
            new_epsn = tracker.advance(psn + 1)
            delivered.update(range(psn + 1, new_epsn))
            epsn = new_epsn
        elif psn > epsn:
            tracker.add(psn)
    reference = set(psns)
    expected = 0
    while expected in reference:
        expected += 1
    assert epsn == expected
    assert delivered == {p for p in reference if p < expected}
