"""DCQCN rate control (Zhu et al., SIGCOMM'15) as RNICs implement it.

The reaction point (sender) keeps a current rate ``Rc``, target rate ``Rt``
and congestion estimate ``alpha``:

* **Decrease** — on a CNP (or, on commodity RNICs, a NACK): at most once
  per *rate decrease interval* ``TD``::

      Rt <- Rc;  Rc <- Rc * (1 - alpha/2);  alpha <- (1-g)*alpha + g

  and the recovery state machine resets — this reset is the "slow start"
  the paper's Fig. 1c shows being triggered spuriously.
* **Increase** — every *rate increase timer* ``TI`` after the last
  decrease: ``F`` rounds of fast recovery (``Rc <- (Rc+Rt)/2``), then
  additive increase (``Rt += Rai``), then hyper increase (``Rt += Rhai``).
* **Alpha decay** — every ``alpha_timer`` without a decrease:
  ``alpha <- (1-g)*alpha``.

The (TI, TD) pair is exactly the knob swept in Fig. 5.  The other
parameters are the module constants below; no experiment varies them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cc.base import CongestionControl
from repro.sim.engine import US, Simulator

# Increase steps and the floor scale with line rate (100G and 400G alike).
ALPHA_G = 1.0 / 256.0       # alpha gain g
ALPHA_TIMER_NS = 55 * US    # alpha-decay period
FAST_RECOVERY_ROUNDS = 5    # F
HYPER_AFTER_ROUNDS = 5      # additive rounds between F and hyper
RATE_AI_FRACTION = 0.005    # Rai = 0.5% of line rate
RATE_HAI_FRACTION = 0.05    # Rhai = 5% of line rate
MIN_RATE_FRACTION = 0.002   # floor = 0.2% of line rate


@dataclass(frozen=True)
class DcqcnConfig:
    """DCQCN parameters.

    ``ti_ns``/``td_ns`` default to the recommended configuration the paper
    sweeps first: TI = 900 us, TD = 4 us.
    """

    ti_ns: int = 900 * US
    td_ns: int = 4 * US
    nack_triggers_decrease: bool = True
    #: DCQCN's byte counter B: every B transmitted bytes also trigger an
    #: increase event (the spec's second increase clock).  ``None``
    #: disables it, leaving the timer as the only increase driver.
    byte_counter_bytes: int | None = None

    def with_timers(self, ti_us: float, td_us: float) -> "DcqcnConfig":
        """Convenience for the Fig. 5 (TI, TD) sweep, arguments in us."""
        return replace(self, ti_ns=int(ti_us * US), td_ns=int(td_us * US))


class Dcqcn(CongestionControl):
    """Per-QP DCQCN reaction point."""

    __slots__ = (
        "config", "rate_target", "alpha", "min_rate_bps", "rate_ai_bps",
        "rate_hai_bps", "_last_decrease_ns", "_increase_stage",
        "_byte_stage", "bytes_to_increase", "_increase_token",
        "_alpha_token", "rec", "rec_loc",
    )

    def __init__(self, sim: Simulator, line_rate_bps: float,
                 config: DcqcnConfig) -> None:
        super().__init__(sim, line_rate_bps)
        self.config = config
        self.rate_target = float(line_rate_bps)
        self.alpha = 1.0
        self.min_rate_bps = line_rate_bps * MIN_RATE_FRACTION
        self.rate_ai_bps = line_rate_bps * RATE_AI_FRACTION
        self.rate_hai_bps = line_rate_bps * RATE_HAI_FRACTION

        self._last_decrease_ns: Optional[int] = None
        self._increase_stage = 0       # timer-driven stage counter
        self._byte_stage = 0           # byte-counter stage counter
        self.bytes_to_increase = config.byte_counter_bytes
        # Timer tokens (``Simulator.fire`` idiom): bumped on arm and on
        # cancel, odd while armed; a tick armed with a stale token is a
        # no-op.
        self._increase_token = 0
        self._alpha_token = 0

        # CC observability channel (repro.obs), attached by the harness
        # cc factory together with a display location (None = disabled).
        self.rec = None
        self.rec_loc = ""

    # ------------------------------------------------------------------
    def _set_rate(self, rate: float) -> None:
        self.rate_bps = min(self.line_rate_bps,
                            max(self.min_rate_bps, rate))
        if self.rec is not None:
            self.rec.cc_rate(self.sim.now, self.rec_loc, self.rate_bps)

    # ------------------------------------------------------------------
    # Decrease path
    # ------------------------------------------------------------------
    def on_cnp(self) -> None:
        self._restart_alpha_timer()
        self.alpha = (1 - ALPHA_G) * self.alpha + ALPHA_G
        self._maybe_decrease()

    def on_nack(self) -> None:
        # Commodity RNICs couple loss signals into the rate machinery:
        # a NACK triggers the same decrease + recovery reset as a CNP.
        # Unlike a CNP it does not update alpha (alpha estimates *ECN*
        # congestion), so during a NACK storm the cuts get shallower as
        # alpha decays — matching the bounded sawtooth of Fig. 1c.
        if self.config.nack_triggers_decrease:
            self._maybe_decrease()

    def on_timeout(self) -> None:
        self.rate_target = self.rate_bps
        self._set_rate(self.min_rate_bps)
        self._reset_recovery()

    def _maybe_decrease(self) -> None:
        now = self.sim.now
        if (self._last_decrease_ns is not None
                and now - self._last_decrease_ns < self.config.td_ns):
            return
        self._last_decrease_ns = now
        self.rate_target = self.rate_bps
        self._set_rate(self.rate_bps * (1 - self.alpha / 2))
        self._reset_recovery()
        self._restart_alpha_timer()

    def _reset_recovery(self) -> None:
        self._increase_stage = 0
        self._byte_stage = 0
        self.bytes_to_increase = self.config.byte_counter_bytes
        token = self._increase_token
        if token & 1:
            token += 1                 # cancel the armed increase timer
        self._increase_token = token = token + 1
        self.sim.fire(self.config.ti_ns, self._increase_tick, token)

    # ------------------------------------------------------------------
    # Increase path
    # ------------------------------------------------------------------
    def _increase_tick(self, token: int) -> None:
        if token != self._increase_token:
            return
        self._increase_stage += 1
        self._do_increase()
        if self._fully_recovered():
            self._increase_token = token + 1
        else:
            self.sim.fire(self.config.ti_ns, self._increase_tick, token)

    def on_bytes_sent(self, nbytes: int) -> None:
        """Byte-counter increase clock (DCQCN's second trigger)."""
        left = self.bytes_to_increase
        if left is None or self._fully_recovered():
            return
        left -= nbytes
        while left <= 0:
            left += self.config.byte_counter_bytes
            self._byte_stage += 1
            self._do_increase()
        self.bytes_to_increase = left

    def _do_increase(self) -> None:
        if self.config.byte_counter_bytes is None:
            # Timer-only operation: fast recovery for F rounds, then
            # additive increase, hyper after a further H rounds.
            stage = self._increase_stage
            hyper = stage > FAST_RECOVERY_ROUNDS + HYPER_AFTER_ROUNDS
            additive = stage > FAST_RECOVERY_ROUNDS
        else:
            # Dual-clock operation per the DCQCN spec: fast recovery
            # while neither counter passed F, hyper once both did,
            # additive in between.
            ft, fb = self._increase_stage, self._byte_stage
            hyper = min(ft, fb) > FAST_RECOVERY_ROUNDS
            additive = max(ft, fb) > FAST_RECOVERY_ROUNDS
        if additive:  # hyper implies additive on both clocks
            step = self.rate_hai_bps if hyper else self.rate_ai_bps
            self.rate_target = min(self.line_rate_bps,
                                   self.rate_target + step)
        self._set_rate((self.rate_bps + self.rate_target) / 2)

    def _fully_recovered(self) -> bool:
        return (self.rate_bps >= self.line_rate_bps * 0.999
                and self.rate_target >= self.line_rate_bps)

    # ------------------------------------------------------------------
    # Alpha decay
    # ------------------------------------------------------------------
    def _restart_alpha_timer(self) -> None:
        token = self._alpha_token
        if token & 1:
            token += 1                 # cancel the armed alpha timer
        self._alpha_token = token = token + 1
        self.sim.fire(ALPHA_TIMER_NS, self._alpha_tick, token)

    def _alpha_tick(self, token: int) -> None:
        if token != self._alpha_token:
            return
        self.alpha *= (1 - ALPHA_G)
        # Below ~0.005 a decrease changes the rate by <0.25%; park the
        # timer (the next CNP/decrease restarts it) so idle QPs quiesce.
        if self.alpha > 5e-3:
            self.sim.fire(ALPHA_TIMER_NS, self._alpha_tick, token)
        else:
            self._alpha_token = token + 1

    # ------------------------------------------------------------------
    def stop(self) -> None:
        if self._increase_token & 1:
            self._increase_token += 1
        if self._alpha_token & 1:
            self._alpha_token += 1
