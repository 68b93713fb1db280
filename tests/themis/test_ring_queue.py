"""Unit + property tests for the ring PSN queue (§3.3)."""

import pytest
from hypothesis import given, strategies as st

from repro.themis.ring_queue import PsnRingQueue, psn_bits_for


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PsnRingQueue(0)

    def test_fifo(self):
        q = PsnRingQueue(8)
        for psn in (3, 1, 4, 1):
            q.enqueue(psn)
        assert q.snapshot() == [3, 1, 4, 1]

    def test_wraparound_reuses_slots(self):
        q = PsnRingQueue(4)
        for psn in range(4):
            q.enqueue(psn)
        assert q.find_tpsn(0) == 1   # consumes 0, then the tPSN 1
        q.enqueue(10)
        q.enqueue(11)
        assert q.snapshot() == [2, 3, 10, 11]

    def test_overflow_evicts_oldest(self):
        q = PsnRingQueue(3)
        evicted = [q.enqueue(psn) for psn in range(5)]
        assert evicted == [False, False, False, True, True]
        assert q.snapshot() == [2, 3, 4]

    def test_truncation_to_one_byte(self):
        q = PsnRingQueue(4, psn_bits=8)
        q.enqueue(0x1FF)
        assert q.snapshot() == [0xFF]

    def test_a_ring_that_aliases_is_refused(self):
        """425 entries (the ring of every 100 G fabric) overrun 8 bits'
        127-entry serial window; 127 is the largest 8-bit ring."""
        with pytest.raises(ValueError, match="alias"):
            PsnRingQueue(425, psn_bits=8)
        with pytest.raises(ValueError, match="alias"):
            PsnRingQueue(128, psn_bits=8)
        assert PsnRingQueue(127, psn_bits=8).capacity == 127
        assert PsnRingQueue(425, psn_bits=psn_bits_for(425, 4)).capacity \
            == 425

    def test_table1_and_fig1_widths(self):
        assert psn_bits_for(100, 256) == 8     # Table 1: 1-byte entries
        assert psn_bits_for(67, 4) == 8        # Fig. 5's ring
        assert psn_bits_for(425, 2) == 10      # every 100 G fabric
        assert psn_bits_for(100, 512) == 9     # N outgrows one byte
        assert psn_bits_for(100, 3) == 32      # no power of two: full PSN


@given(st.integers(min_value=1, max_value=1 << 24),
       st.integers(min_value=1, max_value=1 << 12))
def test_psn_bits_for_is_the_smallest_sound_width(capacity, n_paths):
    """Property: the width keeps the serial compare sound for the whole
    ring and Eq. 3's residue exact, and no narrower width (down to the
    paper's byte) does both."""
    def sound(bits):
        return (1 << (bits - 1)) > capacity and (1 << bits) % n_paths == 0

    bits = psn_bits_for(capacity, n_paths)
    assert 8 <= bits <= 32
    assert (1 << (bits - 1)) > capacity
    assert bits == 32 or (1 << bits) % n_paths == 0
    assert not any(sound(b) for b in range(8, bits))
    PsnRingQueue(capacity, psn_bits=bits)      # never refused


class TestFindTpsn:
    def test_paper_example_fig4b(self):
        """Fig. 4b walkthrough: arrivals 0,1,3,2 then NACK(ePSN=2)."""
        q = PsnRingQueue(8)
        for psn in (0, 1, 3, 2):
            q.enqueue(psn)
        assert q.find_tpsn(2) == 3
        # Scanned entries (0, 1) and the match (3) were consumed; 2 stays.
        assert q.snapshot() == [2]

    def test_paper_example_second_nack(self):
        """Continuation: arrivals 6, 2(4?) ... NACK(ePSN=4) finds 6."""
        q = PsnRingQueue(8)
        for psn in (0, 1, 3, 2):
            q.enqueue(psn)
        q.find_tpsn(2)
        q.enqueue(6)
        q.enqueue(2)
        assert q.find_tpsn(4) == 6

    def test_not_found_drains_queue(self):
        q = PsnRingQueue(8)
        for psn in (0, 1, 2):
            q.enqueue(psn)
        assert q.find_tpsn(5) is None
        assert len(q) == 0

    def test_truncated_serial_comparison_handles_wrap(self):
        """PSNs crossing the 8-bit boundary still compare correctly."""
        q = PsnRingQueue(16, psn_bits=8)
        for psn in (254, 255, 257):  # 257 truncates to 1
            q.enqueue(psn)
        # NACK for ePSN=256 (truncated 0): first *larger* PSN is 257.
        assert q.find_tpsn(256) == 257 & 0xFF

    def test_contains_scan(self):
        q = PsnRingQueue(8)
        for psn in (5, 6, 9):
            q.enqueue(psn)
        assert q.contains(6)
        assert not q.contains(7)

    def test_contains_uses_truncation(self):
        q = PsnRingQueue(8, psn_bits=8)
        q.enqueue(300)  # stored as 44
        assert q.contains(300)
        assert q.contains(44)


@given(st.lists(st.integers(min_value=0, max_value=120), max_size=50),
       st.integers(min_value=0, max_value=120))
def test_find_tpsn_matches_reference_scan(psns, epsn):
    """Property: find_tpsn == linear scan of the FIFO for first PSN > ePSN
    (full-width PSNs, no truncation effects)."""
    q = PsnRingQueue(64, psn_bits=8)
    for psn in psns:
        q.enqueue(psn)
    expected = None
    for i, psn in enumerate(psns):
        if psn > epsn:
            expected = psn
            break
    assert q.find_tpsn(epsn) == expected


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=200))
def test_size_never_exceeds_capacity(psns):
    q = PsnRingQueue(16)
    for psn in psns:
        q.enqueue(psn)
    assert len(q) <= 16
    assert q.snapshot() == [p & 0xFF for p in psns[-len(q):]]
