"""Unit tests for DCQCN rate control."""

import pytest

from repro.cc.base import FixedRate
from repro.cc.dcqcn import (ALPHA_TIMER_NS, FAST_RECOVERY_ROUNDS,
                             HYPER_AFTER_ROUNDS, Dcqcn, DcqcnConfig)
from repro.sim.engine import US, Simulator
from repro.obs.record import CC, Recorder

LINE = 100e9


def make(sim, **cfg_kwargs):
    return Dcqcn(sim, LINE, DcqcnConfig(**cfg_kwargs))


class TestConfig:
    def test_with_timers(self):
        cfg = DcqcnConfig().with_timers(300, 50)
        assert cfg.ti_ns == 300 * US
        assert cfg.td_ns == 50 * US

    def test_defaults_are_recommended_values(self):
        cfg = DcqcnConfig()
        assert cfg.ti_ns == 900 * US
        assert cfg.td_ns == 4 * US


class TestDecrease:
    def test_starts_at_line_rate(self):
        cc = make(Simulator())
        assert cc.rate_bps == LINE

    def test_first_cnp_halves_rate(self):
        # alpha starts at 1, so the first cut is Rc * (1 - 1/2 * ~1).
        cc = make(Simulator())
        cc.on_cnp()
        assert cc.rate_bps == pytest.approx(LINE / 2, rel=0.01)
        assert cc.rate_target == LINE

    def test_td_gates_decreases(self):
        sim = Simulator()
        cc = make(sim, td_ns=100 * US)
        cc.on_cnp()
        rate_after_first = cc.rate_bps
        cc.on_cnp()  # same instant: gated
        assert cc.rate_bps == rate_after_first
        sim.schedule(200 * US, cc.on_cnp)
        sim.run(until=200 * US)
        assert cc.rate_bps < rate_after_first

    def test_nack_triggers_decrease(self):
        cc = make(Simulator())
        cc.on_nack()
        assert cc.rate_bps == LINE / 2      # one cut at alpha = 1
        cc.on_nack()                        # same instant: TD-gated
        assert cc.rate_bps == LINE / 2

    def test_nack_decrease_can_be_disabled(self):
        cc = make(Simulator(), nack_triggers_decrease=False)
        cc.on_nack()
        assert cc.rate_bps == LINE

    def test_rate_floor(self):
        sim = Simulator()
        cc = make(sim, td_ns=0)
        for i in range(200):
            sim.schedule(i + 1, cc.on_cnp)
        sim.run(until=201)
        assert cc.rate_bps >= cc.min_rate_bps

    def test_timeout_drops_to_min(self):
        cc = make(Simulator())
        cc.on_timeout()
        assert cc.rate_bps == cc.min_rate_bps


class TestAlpha:
    def test_cnp_raises_alpha_toward_one(self):
        cc = make(Simulator())
        cc.alpha = 0.1
        cc.on_cnp()
        assert cc.alpha > 0.1

    def test_alpha_decays_without_cnps(self):
        sim = Simulator()
        cc = make(sim)
        cc.on_cnp()
        alpha_after_cnp = cc.alpha
        sim.run(until=2 * ALPHA_TIMER_NS)
        assert cc.alpha < alpha_after_cnp

    def test_nack_does_not_touch_alpha(self):
        cc = make(Simulator())
        before = cc.alpha
        cc.on_nack()
        assert cc.alpha == before


class TestIncrease:
    def test_fast_recovery_converges_to_target(self):
        sim = Simulator()
        cc = make(sim, ti_ns=10 * US)
        cc.on_cnp()  # Rc = 50, Rt = 100
        sim.run(until=60 * US)  # 5-6 fast recovery rounds
        assert cc.rate_bps > 0.95 * LINE

    def test_full_recovery_reaches_line_rate_and_quiesces(self):
        sim = Simulator()
        cc = make(sim, ti_ns=10 * US)
        cc.on_cnp()
        sim.run()
        assert cc.rate_bps == pytest.approx(LINE, rel=1e-3)
        assert sim.pending == 0  # no perpetual timer

    def test_slow_ti_means_slow_recovery(self):
        sim_fast = Simulator()
        fast = make(sim_fast, ti_ns=10 * US)
        fast.on_cnp()
        sim_fast.run(until=300 * US)

        sim_slow = Simulator()
        slow = make(sim_slow, ti_ns=900 * US)
        slow.on_cnp()
        sim_slow.run(until=300 * US)
        assert fast.rate_bps > slow.rate_bps

    def test_decrease_resets_recovery_stage(self):
        sim = Simulator()
        cc = make(sim, ti_ns=10 * US, td_ns=1)
        cc.on_cnp()
        sim.run(until=25 * US)     # a couple of increase rounds
        stage_before = cc._increase_stage
        assert stage_before > 0
        sim.schedule(1, cc.on_cnp)
        sim.run(until=30 * US)
        assert cc._increase_stage == 0 or cc._increase_stage < stage_before

    def test_hyper_increase_raises_target_faster(self):
        # Timer stages past F add Rai to the target, and past F + H Rhai.
        cc = make(Simulator())
        cc.rate_target = LINE / 2
        steps = []
        for stage in (FAST_RECOVERY_ROUNDS,
                      FAST_RECOVERY_ROUNDS + 1,
                      FAST_RECOVERY_ROUNDS + HYPER_AFTER_ROUNDS,
                      FAST_RECOVERY_ROUNDS + HYPER_AFTER_ROUNDS + 1):
            cc._increase_stage = stage
            before = cc.rate_target
            cc._do_increase()
            steps.append(cc.rate_target - before)
        assert steps == [0, cc.rate_ai_bps, cc.rate_ai_bps,
                         cc.rate_hai_bps]
        assert cc.rate_hai_bps > cc.rate_ai_bps


class TestTrace:
    def test_rate_trace_records_changes(self):
        """The rate trace is the CC channel's ``cc_rate`` rows: one per
        rate change, stamped with the rate now in force."""
        sim = Simulator()
        recorder = Recorder(categories=(CC,), retain=(CC,))
        cc = Dcqcn(sim, LINE, DcqcnConfig(ti_ns=10 * US))
        cc.rec, cc.rec_loc = recorder.channel(CC), "cc:test"
        cc.on_cnp()
        assert [d["rate_bps"] for *_, d in recorder.records(CC)] \
            == [cc.rate_bps]
        sim.run(until=100 * US)
        rows = recorder.records(CC)
        assert len(rows) >= 2
        assert rows[0][4]["rate_bps"] == pytest.approx(LINE / 2, rel=0.01)
        assert [loc for _, _, _, loc, _ in rows] == ["cc:test"] * len(rows)
        assert rows[-1][4]["rate_bps"] == cc.rate_bps

    def test_stop_cancels_timers(self):
        sim = Simulator()
        cc = make(sim, ti_ns=10 * US)
        cc.on_cnp()
        cc.stop()
        state = (cc.rate_bps, cc.rate_target, cc.alpha,
                 cc._increase_stage, cc._byte_stage)
        sim.run()  # the cancelled ticks still run, as no-ops
        assert (cc.rate_bps, cc.rate_target, cc.alpha,
                cc._increase_stage, cc._byte_stage) == state


class TestFixedRate:
    def test_ignores_all_signals(self):
        sim = Simulator()
        cc = FixedRate(sim, LINE)
        cc.on_cnp()
        cc.on_nack()
        cc.on_timeout()
        assert cc.rate_bps == LINE


class TestByteCounter:
    def test_disabled_by_default(self):
        cc = make(Simulator())
        cc.on_cnp()
        before = cc.rate_bps
        cc.on_bytes_sent(10**9)
        assert cc.rate_bps == before

    def test_bytes_drive_increases(self):
        sim = Simulator()
        cc = make(sim, ti_ns=10_000_000, byte_counter_bytes=100_000)
        cc.on_cnp()  # Rc = 50
        after_cut = cc.rate_bps
        cc.on_bytes_sent(500_000)  # 5 byte-counter stages, no timer
        assert cc.rate_bps > after_cut
        assert cc._byte_stage == 5

    def test_partial_bytes_accumulate(self):
        sim = Simulator()
        cc = make(sim, byte_counter_bytes=100_000)
        cc.on_cnp()
        cc.on_bytes_sent(60_000)
        assert cc._byte_stage == 0
        cc.on_bytes_sent(60_000)
        assert cc._byte_stage == 1

    def test_hyper_requires_both_clocks(self):
        sim = Simulator()
        cc = make(sim, ti_ns=10 * US, byte_counter_bytes=10_000)
        cc.on_cnp()
        # Drive the byte clock far past F while the timer stays behind.
        cc.on_bytes_sent(100_000)   # byte stage 10 > F; timer stage 0
        target_after_bytes = cc.rate_target
        # Only additive increase should have applied (not hyper): the
        # target has grown by at most stages * Rai.
        assert cc.rate_target - cc.line_rate_bps <= 0
        assert target_after_bytes <= cc.line_rate_bps
        # With both clocks running the rate fully recovers and the
        # increase machinery parks itself.
        sim.run(until=200 * US)
        assert cc.rate_bps == pytest.approx(cc.line_rate_bps, rel=1e-3)
        stage = cc._increase_stage
        sim.run()
        assert cc._increase_stage == stage
        assert sim.pending == 0

    def test_decrease_resets_byte_state(self):
        sim = Simulator()
        cc = make(sim, byte_counter_bytes=10_000, td_ns=0)
        cc.on_cnp()
        cc.on_bytes_sent(35_000)
        assert cc._byte_stage == 3
        sim.schedule(1, cc.on_cnp)
        sim.run()
        assert cc._byte_stage == 0
        assert cc.bytes_to_increase == 10_000

    def test_recovered_qp_ignores_bytes(self):
        sim = Simulator()
        cc = make(sim, byte_counter_bytes=10_000)
        # Never cut: at line rate from the start.
        cc.on_bytes_sent(10**6)
        assert cc._byte_stage == 0
