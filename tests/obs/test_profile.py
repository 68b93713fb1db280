"""Tests for the event-handler wall-time profiler."""

from collections import Counter

import pytest

from repro.harness.bench import BUILDERS, DEADLINE_NS
from repro.obs.profile import Profiler
from repro.sim.engine import Simulator
from tests.sim.heap_oracle import HeapSimulator


def busy(n=2000):
    total = 0
    for i in range(n):
        total += i
    return total


class TestProfiler:
    def run_workload(self, sim):
        fired = {"n": 0}

        def tick(_):
            busy()
            fired["n"] += 1
            if fired["n"] < 50:
                sim.fire(100, tick)

        def tock(_):
            busy(500)

        # ``fire`` keeps each handler's qualname; a ``schedule``d entry
        # would profile as ``Timer.run``.
        sim.fire(0, tick)
        sim.fire(50, tock)
        prof = Profiler(sim).attach()
        sim.run()
        prof.detach()
        return prof

    def test_histograms_by_qualname(self):
        prof = self.run_workload(Simulator())
        keys = set(prof.stats)
        assert any("tick" in k for k in keys)
        assert any("tock" in k for k in keys)
        tick_stats = next(s for k, s in prof.stats.items() if "tick" in k)
        assert tick_stats.calls >= 10
        assert tick_stats.total_s > 0
        assert tick_stats.mean_us > 0

    def test_works_on_heap_engine_too(self):
        prof = self.run_workload(HeapSimulator())
        assert prof.stats

    def test_report_shares_sum_to_one(self):
        prof = self.run_workload(Simulator())
        report = prof.report()
        assert report["handlers"] == sorted(
            report["handlers"], key=lambda r: -r["total_ms"])
        assert sum(r["share"] for r in report["handlers"]) == \
            pytest.approx(1.0, abs=0.01)
        assert report["total_ms"] > 0
        # ``top`` drops rows, not time: the total still covers them all.
        assert prof.report(top=1) == {**report,
                                      "handlers": report["handlers"][:1]}
        assert len(prof.format_table(top=1).splitlines()) == 3

    def test_format_table(self):
        prof = self.run_workload(Simulator())
        table = prof.format_table()
        assert "handler" in table.splitlines()[0]
        assert "total profiled wall time" in table.splitlines()[-1]

    def test_attach_conflict_raises(self):
        sim = Simulator()
        sim.trace = lambda *a: None
        with pytest.raises(RuntimeError, match="already in use"):
            Profiler(sim).attach()

    def test_context_manager_detaches(self):
        sim = Simulator()
        sim.schedule(0, busy)
        with Profiler(sim) as prof:
            assert sim.trace is not None
            sim.run()
        assert sim.trace is None
        assert prof.stats

    def test_detach_without_attach_is_noop(self):
        Profiler(Simulator()).detach()


def test_calls_match_a_plain_trace_tally():
    """Handlers are bound methods created per event; their ids are
    recycled, so a cache keyed on ``id(callback)`` charged one handler's
    calls to another.  Per-handler ``calls`` must equal what a plain
    ``Simulator.trace`` tally of the same (deterministic) run counts."""
    tally = Counter()

    def count(t, seq, callback):
        tally[callback.__qualname__] += 1

    net = BUILDERS["lossy"](True, None)
    net.sim.trace = count
    net.run(until_ns=DEADLINE_NS)
    net = BUILDERS["lossy"](True, None)
    with Profiler(net.sim) as prof:
        net.run(until_ns=DEADLINE_NS)
    assert len(tally) > 5
    assert {k: s.calls for k, s in prof.stats.items()} == dict(tally)
