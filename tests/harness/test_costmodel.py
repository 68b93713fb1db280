"""Pure-function tests for the cost model and the bench regression gate.

No simulation runs here: the fit, the prediction, the residual table and
``check_regression`` are arithmetic over documents, so they are tested on
hand-made numbers whose answers are known exactly.
"""

import json

import pytest

from repro.harness.bench import check_regression
from repro.harness.costmodel import (CostModel, _fit_structural,
                                     residual_table, validate)


def model(**overrides):
    fields = dict(costs_ns={"Port._pump": 1000.0, "Switch.receive": 2000.0},
                  default_cost_ns=1500.0, calibration_scenario="alltoall",
                  alpha=0.9)
    fields.update(overrides)
    return CostModel(**fields)


class TestPredict:
    def test_wall_is_the_count_weighted_cost_sum(self):
        mix = {"Port._pump": 3, "Switch.receive": 2}
        assert model().predict_wall_s(mix) == pytest.approx(7000e-9)

    def test_unseen_class_costs_the_default(self):
        assert model().predict_wall_s({"Dcqcn._alpha_tick": 4}) \
            == pytest.approx(6000e-9)

    def test_structural_terms_add_per_batch_and_per_sim_ns(self):
        m = model(batch_cost_ns=500.0, time_cost=0.25)
        wall = m.predict_wall_s({"Port._pump": 1}, sim_time_ns=4000,
                                batches=2)
        assert wall == pytest.approx((1000 + 2 * 500 + 0.25 * 4000) * 1e-9)

    def test_events_per_sec_is_events_over_wall(self):
        mix = {"Port._pump": 3, "Switch.receive": 2}
        assert model().predict_events_per_sec(mix) \
            == pytest.approx(5 / 7000e-9)
        assert model().predict_events_per_sec({}) == 0.0

    def test_validate_reports_signed_error_against_tolerance(self):
        m = model(tolerance=0.10)
        infos = {"a": ({"Port._pump": 1000}, 1000, 0, 0),
                 "b": ({"Port._pump": 1000}, 1000, 0, 0)}
        rows = validate(m, {"a": {"events_per_sec": 1_000_000},
                            "b": {"events_per_sec": 800_000}}, infos)
        assert [r["scenario"] for r in rows] == ["a", "b"]
        assert rows[0]["predicted_events_per_sec"] == 1_000_000
        assert rows[0]["error_pct"] == 0.0 and rows[0]["ok"]
        assert rows[1]["error_pct"] == 25.0 and not rows[1]["ok"]


class TestJsonRoundTrip:
    def test_from_json_inverts_to_json(self):
        m = model(batch_cost_ns=812.5, time_cost=0.125, tolerance=0.2)
        back = CostModel.from_json(json.loads(json.dumps(m.to_json())))
        assert back == m

    def test_to_json_orders_costs_dearest_first_and_rounds(self):
        doc = model(costs_ns={"cheap": 10.04, "dear": 99.96}).to_json()
        assert list(doc["costs_ns"].items()) == [("dear", 100.0),
                                                 ("cheap", 10.0)]
        assert doc["time_cost_wall_ns_per_sim_ns"] == 0.0

    def test_from_json_defaults_the_structural_terms(self):
        doc = model().to_json()
        for key in ("batch_cost_ns", "time_cost_wall_ns_per_sim_ns",
                    "tolerance"):
            del doc[key]
        back = CostModel.from_json(doc)
        assert (back.batch_cost_ns, back.time_cost) == (0.0, 0.0)
        assert back.tolerance == 0.15


class TestFitStructural:
    def test_two_anchors_are_solved_exactly(self):
        # gap = 300 * batches + 0.5 * sim_time_ns
        gaps = [(300 * 10 + 0.5 * 1000, 10, 1000),
                (300 * 40 + 0.5 * 200, 40, 200)]
        batch_cost, time_cost = _fit_structural(gaps)
        assert batch_cost == pytest.approx(300.0)
        assert time_cost == pytest.approx(0.5)

    def test_negative_solution_falls_back_to_the_better_single_term(self):
        # gap = 100 * batches - 0.5 * sim_time_ns: the exact solve has a
        # negative time cost, and batches alone explain the gaps far
        # better than sim time alone.
        gaps = [(500.0, 10, 1000), (3450.0, 40, 1100)]
        batch_cost, time_cost = _fit_structural(gaps)
        assert time_cost == 0.0
        assert batch_cost == pytest.approx(
            (500 * 10 + 3450 * 40) / (10 * 10 + 40 * 40))

    def test_fallback_picks_time_when_time_fits_better(self):
        gaps = [(500.0, 1000, 10), (3450.0, 1100, 40)]
        batch_cost, time_cost = _fit_structural(gaps)
        assert batch_cost == 0.0
        assert time_cost == pytest.approx(
            (500 * 10 + 3450 * 40) / (10 * 10 + 40 * 40))

    def test_all_negative_gaps_clamp_to_zero(self):
        assert _fit_structural([(-5.0, 10, 0)]) == (0.0, 0.0)


class TestResidualTable:
    def test_median_machine_factor_is_normalised_out(self):
        base = {"costs_ns": {"a": 100.0, "b": 200.0, "c": 400.0}}
        cur = {"costs_ns": {"a": 200.0, "b": 400.0, "c": 800.0}}
        lines = residual_table(cur, base)
        assert "machine factor 2.00x" in lines[0]
        assert all("1.00x" in line for line in lines[2:])
        assert not any("slower" in line for line in lines)

    def test_the_class_that_regressed_is_flagged_and_listed_first(self):
        base = {"costs_ns": {"a": 100.0, "b": 200.0, "c": 400.0}}
        cur = {"costs_ns": {"a": 100.0, "b": 300.0, "c": 400.0}}
        lines = residual_table(cur, base)
        assert lines[2].split()[0] == "b"
        assert lines[2].endswith("<-- slower")
        assert sum("slower" in line for line in lines) == 1

    def test_only_shared_classes_are_compared(self):
        assert residual_table({"costs_ns": {"a": 1.0}},
                              {"costs_ns": {"b": 1.0}}) \
            == ["cost model: no shared event classes with baseline"]
        assert residual_table({"costs_ns": {"a": 1.0}},
                              {"costs_ns": {"a": 0.0}}) \
            == ["cost model: baseline costs are all zero"]


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

    def gate(self, baseline, scenarios, tracing=None, **kwargs):
        doc = {"scenarios": {name: {"events_per_sec": eps}
                             for name, eps in scenarios.items()}}
        if tracing is not None:
            doc["tracing"] = {"overhead_ratio": tracing}
        lines = []
        return check_regression(doc, baseline, echo=lines.append,
                                **kwargs), lines

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

    def test_only_the_intersection_of_scenarios_is_gated(self, baseline):
        bad, lines = self.gate(baseline, {"incast": 1000, "brand_new": 1})
        assert bad == []
        assert len(lines) == 1 and "incast" in lines[0]

    def test_out_of_tolerance_predictions_are_regressions(self, baseline):
        doc = {"scenarios": {}, "cost_model": {
            "tolerance": 0.15, "predictions": [
                {"scenario": "incast", "error_pct": 3.0, "ok": True},
                {"scenario": "lossy", "error_pct": -21.5, "ok": False}]}}
        bad = check_regression(doc, baseline, echo=lambda line: None)
        assert bad == ["cost model: lossy prediction off by -21.5% "
                       "(tolerance 15%)"]

    def test_thresholds_are_parameters(self, baseline):
        bad, _ = self.gate(baseline, {"incast": 940}, tracing=1.25,
                           max_regression=0.05, max_tracing_regression=0.01)
        assert len(bad) == 2
