"""Themis-D's rules over one QP's state (Fig. 4a, §3.3–3.4).

A :class:`FlowEntry` per cross-rack QP terminating under a ToR holds the
ring PSN queue, the ``(BePSN, Valid)`` compensation register and the path
count ``N``, and the three rules over them:

* data (§3.3): each PSN leaving the ToR toward the NIC enters the ring,
  so its FIFO order is the NIC's arrival order;
* NACK (§3.3): a NACK carries only the receiver's ePSN; its trigger PSN
  (tPSN) is the first ring entry greater than ePSN, and Eq. 3,
  ``tPSN mod N == ePSN mod N``, says ePSN's own path delivered a later
  PSN (ePSN is lost: forward) or not (skew between paths: block);
* compensation (§3.4): a block arms ``(BePSN, Valid)``; a later PSN on
  BePSN's path proves it lost, and BePSN's own arrival disarms.

The rules take plain ints and return what happened; they touch no
switch, clock, counter or recorder.  :class:`repro.themis.dest.ThemisDest`
is the switch adapter that counts, traces and forwards what they return.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import FlowKey
from repro.themis.ring_queue import PsnRingQueue, psn_bits_for

#: :meth:`FlowEntry.on_last_hop` outcome bits (0: nothing happened).
OVERFLOW = 1     # the ring's oldest PSN gave way to this one
CANCEL = 2       # the BePSN packet itself arrived: the register disarmed
COMPENSATE = 4   # a later same-path PSN proved the BePSN lost


class FlowEntry:
    """State Themis-D keeps per cross-rack QP, and the rules over it."""

    __slots__ = ("flow", "n_paths", "queue", "blocked_epsn", "valid")

    def __init__(self, flow: FlowKey, n_paths: int, capacity: int) -> None:
        self.flow = flow
        self.n_paths = n_paths
        self.queue = PsnRingQueue(capacity, psn_bits_for(capacity, n_paths))
        self.blocked_epsn: Optional[int] = None   # BePSN
        self.valid = False                         # compensation armed?

    def same_path(self, psn_a: int, psn_b: int) -> bool:
        """Eq. 3: two PSNs map to the same path iff equal mod N."""
        return psn_a % self.n_paths == psn_b % self.n_paths

    def on_last_hop(self, psn: int) -> int:
        """A data packet leaves the ToR toward the NIC: check the armed
        register, then cache its PSN.  Returns the outcome bits; after
        a cancel or compensate, ``blocked_epsn`` names the BePSN."""
        event = 0
        if self.valid:
            bepsn = self.blocked_epsn
            if psn == bepsn:
                # The "lost" packet arrived after all.
                self.valid = False
                event = CANCEL
            elif psn > bepsn and self.same_path(psn, bepsn):
                # A later packet on the *same* path overtook the blocked
                # ePSN: it is genuinely lost, so a NACK must be crafted.
                self.valid = False
                event = COMPENSATE
        if self.queue.enqueue(psn):
            event |= OVERFLOW
        return event

    def classify(self, epsn: int, arm: bool) -> tuple:
        """A NACK for ``epsn``: find its tPSN and apply Eq. 3; a block
        arms the register when ``arm`` (compensation runs) and the guard
        allows.  Returns ``(verdict, tpsn, armed, guard, superseded)``,
        ``superseded`` being the BePSN a new arming replaced."""
        queue = self.queue
        tpsn = queue.find_tpsn(epsn)
        if tpsn is None:
            return "no_tpsn", None, False, None, None
        # Eq. 3 in the (possibly truncated) PSN space: psn_bits_for makes
        # 2^bits a multiple of N, so the residue is exact.
        if self.same_path(tpsn, queue.truncate(epsn)):
            return "forwarded", tpsn, False, None, None
        if not arm:
            return "blocked", tpsn, False, "compensation_disabled", None
        # Arming guard: the NACK is one last-hop RTT stale.  If the
        # expected packet already traversed the ToR it sits in the ring
        # *behind* the trigger (the trigger always passes the ToR first,
        # and the last-hop FIFO preserves order), so it is provably not
        # lost and compensation would only ever fire spuriously.
        if queue.contains(epsn):
            return "blocked", tpsn, False, "epsn_in_ring", None
        # One register per flow: a new arming replaces the previous one.
        superseded = (self.blocked_epsn if self.valid
                      and self.blocked_epsn != epsn else None)
        self.blocked_epsn = epsn
        self.valid = True
        return "blocked", tpsn, True, None, superseded

    def disarm(self) -> Optional[int]:
        """Cancel the register; the BePSN it held, if it was armed."""
        if not self.valid:
            return None
        self.valid = False
        return self.blocked_epsn
