"""Unit tests for Themis-D's rules on one QP's state (FlowEntry):
tPSN identification, Eq. 3 validation and the (BePSN, Valid) register,
called directly with plain PSNs — no switch, clock or counter."""

from repro.net.packet import FlowKey
from repro.themis.flow_table import (CANCEL, COMPENSATE, OVERFLOW,
                                     FlowEntry)

FLOW = FlowKey(0, 1)


def entry_after(*psns, n_paths=2, capacity=32):
    """An entry whose ring saw ``psns`` leave toward the NIC."""
    entry = FlowEntry(FLOW, n_paths, capacity)
    for psn in psns:
        entry.on_last_hop(psn)
    return entry


class TestFlowEntry:
    def test_same_path_is_eq3(self):
        entry = FlowEntry(FLOW, n_paths=4, capacity=16)
        assert entry.same_path(2, 6)      # 2 % 4 == 6 % 4
        assert not entry.same_path(2, 5)

    def test_initial_compensation_state(self):
        entry = FlowEntry(FLOW, 4, 16)
        assert entry.blocked_epsn is None
        assert not entry.valid

    def test_ring_is_sized_for_the_paths(self):
        queue = FlowEntry(FLOW, 4, 16).queue
        assert (queue.capacity, queue.psn_bits) == (16, 8)

    def test_overflow_is_reported(self):
        entry = FlowEntry(FLOW, 2, 4)
        events = [entry.on_last_hop(psn) for psn in range(6)]
        assert events == [0, 0, 0, 0, OVERFLOW, OVERFLOW]


class TestValidation:
    def test_fig4b_invalid_nack_blocked(self):
        """Fig. 4b: arrivals 0,1,3 -> NACK(2); tPSN=3, 3%2 != 2%2."""
        verdict, tpsn, *_ = entry_after(0, 1, 3).classify(2, arm=True)
        assert (verdict, tpsn) == ("blocked", 3)

    def test_same_path_overtake_forwarded(self):
        """Arrivals 0,1,4 -> NACK(2); tPSN=4, 4%2 == 2%2: the PSN-2
        packet is genuinely lost."""
        entry = entry_after(0, 1, 4)
        assert entry.classify(2, arm=True) == ("forwarded", 4, False,
                                               None, None)
        assert not entry.valid

    def test_fig4b_full_sequence(self):
        entry = entry_after(0, 1, 3, 2)
        assert entry.classify(2, arm=True)[0] == "blocked"
        entry.on_last_hop(6)
        entry.on_last_hop(2)       # duplicate retransmit arriving late
        # tPSN=6 -> 6%2 == 4%2 -> valid
        assert entry.classify(4, arm=True)[0] == "forwarded"

    def test_drained_ring_has_no_tpsn(self):
        entry = entry_after(0)
        assert entry.classify(5, arm=True) == ("no_tpsn", None, False,
                                               None, None)
        assert len(entry.queue) == 0


class TestCompensation:
    def test_block_arms_the_register(self):
        entry = entry_after(0, 1, 3)
        assert entry.classify(2, arm=True) == ("blocked", 3, True,
                                               None, None)
        assert entry.valid and entry.blocked_epsn == 2

    def test_arming_guard_when_epsn_already_passed_tor(self):
        """The stale-NACK case: PSN 2 passed the ToR (it is in the ring
        behind the trigger) before its NACK arrived.  Compensation must
        not arm — PSN 2 is demonstrably not lost."""
        entry = entry_after(0, 1, 3, 2)
        assert entry.classify(2, arm=True) == ("blocked", 3, False,
                                               "epsn_in_ring", None)
        assert not entry.valid
        assert entry.on_last_hop(4) == 0

    def test_compensation_disabled_never_arms(self):
        entry = entry_after(0, 1, 3)
        assert entry.classify(2, arm=False) == (
            "blocked", 3, False, "compensation_disabled", None)
        assert entry.blocked_epsn is None and not entry.valid

    def test_rearm_supersedes_the_previous_bepsn(self):
        """One register per flow: a second block for another ePSN
        replaces the armed BePSN and says which one it replaced."""
        entry = entry_after(0, 1, 3)
        entry.classify(2, arm=True)
        entry.on_last_hop(5)       # different path: still armed
        entry.on_last_hop(7)
        # tPSN 5: 5%2 != 4%2
        assert entry.classify(4, arm=True) == ("blocked", 5, True,
                                               None, 2)
        assert entry.blocked_epsn == 4
        # Re-arming the same ePSN supersedes nothing.
        entry.on_last_hop(9)
        assert entry.classify(4, arm=True) == ("blocked", 7, True,
                                               None, None)

    def test_fig4c_compensates_when_loss_confirmed(self):
        """Fig. 4c: block NACK(2), then PSN 4 (same path as 2) arrives
        while 2 never does -> a NACK(2) must be crafted."""
        entry = entry_after(0, 1, 3)
        entry.classify(2, arm=True)
        assert entry.on_last_hop(4) == COMPENSATE
        assert not entry.valid and entry.blocked_epsn == 2

    def test_compensation_fires_once(self):
        entry = entry_after(0, 1, 3)
        entry.classify(2, arm=True)
        assert entry.on_last_hop(4) == COMPENSATE
        assert entry.on_last_hop(6) == 0   # same residue: no re-fire

    def test_arrival_of_bepsn_cancels(self):
        """§3.4: if the blocked ePSN packet shows up, no compensation."""
        entry = entry_after(0, 1, 3)
        entry.classify(2, arm=True)
        assert entry.on_last_hop(2) == CANCEL
        assert entry.on_last_hop(4) == 0

    def test_different_path_packet_does_not_trigger(self):
        entry = entry_after(0, 1, 3)
        entry.classify(2, arm=True)
        # 5 % 2 != 2 % 2: different path, says nothing about 2.
        assert entry.on_last_hop(5) == 0
        assert entry.valid

    def test_compensation_and_overflow_together(self):
        entry = entry_after(0, 1, 3, capacity=4)
        entry.classify(2, arm=True)        # the ring holds nothing now
        for psn in (5, 7, 9, 11):
            entry.on_last_hop(psn)
        assert entry.on_last_hop(4) == COMPENSATE | OVERFLOW


class TestDisarm:
    def test_disarm_returns_the_bepsn_once(self):
        entry = entry_after(0, 1, 3)
        entry.classify(2, arm=True)
        assert entry.disarm() == 2
        assert not entry.valid
        assert entry.disarm() is None
        assert entry.on_last_hop(4) == 0

    def test_unarmed_entry_has_nothing_to_disarm(self):
        assert entry_after(0, 1).disarm() is None
