"""Pure-function tests for the bench regression gate.

No simulation runs here: ``check_regression`` is arithmetic over two
documents, so it is tested on hand-made numbers whose answers are known
exactly.
"""

import json

import pytest

from repro.harness.bench import check_regression


class TestCheckRegression:
    @pytest.fixture()
    def baseline(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "scenarios": {"incast": {"events_per_sec": 1000},
                          "alltoall": {"events_per_sec": 2000},
                          "retired": {"events_per_sec": 500}},
            "tracing": {"overhead_ratio": 1.20}}))
        return str(path)

    def gate(self, baseline, scenarios, tracing=None):
        doc = {"scenarios": {name: {"events_per_sec": eps}
                             for name, eps in scenarios.items()}}
        if tracing is not None:
            doc["tracing"] = {"overhead_ratio": tracing}
        lines = []
        return check_regression(doc, baseline, echo=lines.append), lines

    def test_thirty_percent_events_per_sec_rule(self, baseline):
        ok, _ = self.gate(baseline, {"incast": 700, "alltoall": 1400})
        assert ok == []
        bad, lines = self.gate(baseline, {"incast": 699, "alltoall": 2000})
        assert len(bad) == 1 and bad[0].startswith("incast: 699 ev/s")
        assert any("REGRESSION" in line for line in lines)

    def test_fifteen_percent_tracing_rule(self, baseline):
        ok, _ = self.gate(baseline, {}, tracing=1.38)
        assert ok == []
        bad, _ = self.gate(baseline, {}, tracing=1.39)
        assert len(bad) == 1 and bad[0].startswith("tracing: overhead")

    def test_quick_run_is_not_gated_against_a_full_mode_baseline(
            self, baseline):
        """The fixture baseline is full-mode (no ``quick`` key, like a
        pre-schema file): a quick run at half its speed is reported as
        not comparable, never as a regression."""
        doc = {"quick": True, "scenarios": {"incast": {"events_per_sec": 500}},
               "tracing": {"overhead_ratio": 9.0}}
        lines = []
        assert check_regression(doc, baseline, echo=lines.append) == []
        assert lines == ["regression gate: not comparable: quick run vs "
                         "full-mode baseline"]
        bad, _ = self.gate(baseline, {"incast": 500})
        assert len(bad) == 1  # full vs full is still the gate

    def test_only_the_intersection_of_scenarios_is_gated(self, baseline):
        bad, lines = self.gate(baseline, {"incast": 1000, "brand_new": 1})
        assert bad == []
        assert len(lines) == 1 and "incast" in lines[0]
