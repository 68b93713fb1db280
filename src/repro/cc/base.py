"""Congestion-control interface used by sender QPs.

A sender QP consults :attr:`CongestionControl.rate_bps` to pace packets and
feeds back transport events (CNP arrivals, NACKs, timeouts).  The paper's
central observation is that commodity RNICs couple *reliability* signals
into this module: a NACK triggers the same rate cut as a CNP (§2.2,
"unnecessary slow starts"), which is what Themis prevents by blocking
invalid NACKs in the fabric.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.engine import Simulator


class CongestionControl:
    """Strategy interface; one instance per sender QP, slotted like the
    QP (a subclass lists its own fields)."""

    __slots__ = ("sim", "line_rate_bps", "rate_bps")

    #: Bytes left before the byte counter's next increase stage, or
    #: ``None`` when this CC keeps no byte counter: the sender then skips
    #: :meth:`on_bytes_sent` on its per-packet path.
    bytes_to_increase: Optional[int] = None

    def __init__(self, sim: Simulator, line_rate_bps: float) -> None:
        self.sim = sim
        self.line_rate_bps = float(line_rate_bps)
        #: Current paced sending rate, read by the sender once per packet
        #: (a plain attribute, so the read is not a call).
        self.rate_bps = self.line_rate_bps

    def on_cnp(self) -> None:
        """A DCQCN congestion notification arrived for this QP."""

    def on_nack(self) -> None:
        """A NACK arrived (commodity RNICs treat this as congestion)."""

    def on_timeout(self) -> None:
        """Retransmission timeout fired."""

    def on_bytes_sent(self, nbytes: int) -> None:
        """Data transmitted — drives DCQCN's byte-counter increases.
        The sender calls it only while :attr:`bytes_to_increase` is set."""

    def stop(self) -> None:
        """Cancel any pending timers (QP teardown)."""


class FixedRate(CongestionControl):
    """Line-rate sender with no reaction to any signal.

    Used by the *Ideal* transport baseline in Fig. 1d, which isolates the
    cost of spurious retransmissions + slow starts: Ideal never slows down
    and never retransmits spuriously.  Its rate stays the line rate
    :meth:`CongestionControl.__init__` sets.
    """

    __slots__ = ()
