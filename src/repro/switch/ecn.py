"""ECN marking (DCQCN-style RED on instantaneous egress queue depth).

DCQCN expects switches to mark the IP ECN bits with probability 0 below
``kmin`` bytes of egress queue, rising linearly to ``pmax`` at ``kmax``,
and 1.0 above ``kmax``.  Marking happens when a data packet is enqueued,
based on the queue length it observes, which matches how shallow-buffer
ASICs implement WRED.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import SimRng


@dataclass(frozen=True)
class EcnConfig:
    """RED/ECN thresholds in bytes.

    The defaults are sized for the 400 Gbps fabric of the paper's §5 setup
    (scaled from the DCQCN deployment guidance of ~5 µs of line rate for
    kmin).  Experiments override them per run.
    """

    kmin_bytes: int = 100_000
    kmax_bytes: int = 400_000
    pmax: float = 0.2

    def __post_init__(self) -> None:
        if self.kmin_bytes < 0 or self.kmax_bytes < self.kmin_bytes:
            raise ValueError("require 0 <= kmin <= kmax")
        if not 0.0 <= self.pmax <= 1.0:
            raise ValueError("pmax must be in [0, 1]")


class EcnMarker:
    """Stateless marking decision from queue depth + config + RNG."""

    def __init__(self, config: EcnConfig, rng: SimRng) -> None:
        self.config = config
        self._rng = rng
        # Thresholds copied out of the (frozen) config: should_mark runs
        # once per data packet per hop, so the attribute chain matters.
        self._kmin = config.kmin_bytes
        self._kmax = config.kmax_bytes
        self._pmax = config.pmax
        self._span = max(1, config.kmax_bytes - config.kmin_bytes)
        self._u01 = rng.u01
        self.marked = 0

    def should_mark(self, queue_bytes: int) -> bool:
        """Decide marking for a packet that sees ``queue_bytes`` ahead."""
        if queue_bytes <= self._kmin:
            return False
        if queue_bytes >= self._kmax:
            self.marked += 1
            return True
        hit = (self._u01()
               < self._pmax * (queue_bytes - self._kmin) / self._span)
        if hit:
            self.marked += 1
        return hit
