"""Tests for the declarative fault-scenario spec layer."""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.scenarios import BUILTIN_SCENARIOS
from repro.faults.spec import (DEFAULT_CONVERGE_US, LAYER_KINDS,
                               LatencyShift, LinkFlap,
                               PfcStorm, RandomLoss, RateDegrade, Scenario,
                               ScenarioError, SwitchReboot, compiled_spec,
                               load_scenario, scenario_from_dict,
                               spec_duration_us, validate_compiled)


class TestLayers:
    def test_flap_emits_down_up_pair(self):
        evs = LinkFlap(link="a:b", at_us=10, down_us=5).events()
        assert [(e["kind"], e["at_us"]) for e in evs] == [
            ("link_down", 10), ("link_up", 15)]

    def test_flap_repeat_defaults_to_double_down_period(self):
        evs = LinkFlap(link="a:b", at_us=0, down_us=10, repeat=3).events()
        downs = [e["at_us"] for e in evs if e["kind"] == "link_down"]
        assert downs == [0, 20, 40]

    def test_flap_period_must_exceed_down(self):
        with pytest.raises(ScenarioError):
            LinkFlap(link="a:b", at_us=0, down_us=10, repeat=2,
                     period_us=5).events()

    def test_flap_repeat_must_be_positive(self):
        with pytest.raises(ScenarioError):
            LinkFlap(link="a:b", at_us=0, down_us=1, repeat=0).events()

    def test_negative_time_rejected(self):
        with pytest.raises(ScenarioError):
            LinkFlap(link="a:b", at_us=-1, down_us=1).events()

    def test_degrade_factor_bounds(self):
        for factor in (0.0, 1.0, 2.0, -0.5):
            with pytest.raises(ScenarioError):
                RateDegrade(link="a:b", at_us=0, duration_us=10,
                            factor=factor).events()
        evs = RateDegrade(link="a:b", at_us=0, duration_us=10,
                          factor=0.5).events()
        assert [e["kind"] for e in evs] == ["degrade", "degrade_end"]

    def test_latency_direction_checked(self):
        with pytest.raises(ScenarioError):
            LatencyShift(link="a:b", at_us=0, duration_us=10, extra_us=1,
                         direction="sideways").events()
        evs = LatencyShift(link="a:b", at_us=0, duration_us=10,
                           extra_us=2, direction="ba").events()
        assert evs[0]["direction"] == "ba"

    def test_loss_rate_bounds(self):
        with pytest.raises(ScenarioError):
            RandomLoss(link="a:b", at_us=0, duration_us=10,
                       rate=0.0).events()
        with pytest.raises(ScenarioError):
            RandomLoss(link="a:b", at_us=0, duration_us=10,
                       rate=1.5).events()

    def test_reboot_and_storm_target_switches(self):
        assert SwitchReboot(switch="s", at_us=1,
                            down_us=2).events()[0]["switch"] == "s"
        assert PfcStorm(switch="s", at_us=1,
                        duration_us=2).events()[1]["kind"] == "storm_end"


class TestScenarioCompile:
    def test_events_sorted_by_time(self):
        spec = (Scenario("x")
                .add(LinkFlap(link="a:b", at_us=50, down_us=10))
                .add(RateDegrade(link="c:d", at_us=5, duration_us=100,
                                 factor=0.5))
                .compile())
        times = [e["at_us"] for e in spec["events"]]
        assert times == sorted(times)
        assert spec["converge_us"] == DEFAULT_CONVERGE_US

    def test_compile_is_deterministic(self):
        def build():
            return (Scenario("x")
                    .add(LinkFlap(link="a:b", at_us=10, down_us=10))
                    .add(LinkFlap(link="c:d", at_us=10, down_us=10))
                    .compile())
        assert build() == build()

    def test_duration(self):
        spec = Scenario("x").add(
            LinkFlap(link="a:b", at_us=40, down_us=80)).compile()
        assert spec_duration_us(spec) == 120
        assert spec_duration_us(Scenario("empty").compile()) == 0.0


class TestDeclarativeForm:
    DOC = {
        "name": "flap-smoke",
        "workload": {"nodes": 8},
        "layers": [
            {"kind": "link_flap", "link": "tor0:spine0",
             "at_us": 40, "down_us": 80},
        ],
    }

    def test_round_trip(self):
        scenario = scenario_from_dict(self.DOC)
        spec = scenario.compile()
        assert spec["name"] == "flap-smoke"
        assert [e["kind"] for e in spec["events"]] == ["link_down",
                                                       "link_up"]

    def test_unknown_kind(self):
        doc = {"name": "x", "layers": [{"kind": "gremlins"}]}
        with pytest.raises(ScenarioError, match="unknown kind"):
            scenario_from_dict(doc)

    def test_bad_layer_params(self):
        doc = {"name": "x", "layers": [{"kind": "link_flap",
                                        "wat": True}]}
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_missing_name(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"layers": []})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.DOC))
        assert load_scenario(path).name == "flap-smoke"

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError):
            load_scenario(path)


class TestCompiledSpec:
    def test_accepts_all_three_forms(self):
        scenario = scenario_from_dict(TestDeclarativeForm.DOC)
        compiled = scenario.compile()
        assert compiled_spec(scenario) == compiled
        assert compiled_spec(TestDeclarativeForm.DOC) == compiled
        assert compiled_spec(compiled) == compiled

    def test_rejects_non_spec(self):
        with pytest.raises(ScenarioError):
            compiled_spec(42)

    def test_validate_unsorted(self):
        spec = {"name": "x", "events": [
            {"at_us": 10, "kind": "link_up", "link": "a:b"},
            {"at_us": 5, "kind": "link_down", "link": "a:b"},
        ]}
        with pytest.raises(ScenarioError, match="not time-sorted"):
            validate_compiled(spec)

    def test_validate_unknown_kind(self):
        spec = {"name": "x", "events": [{"at_us": 0, "kind": "melt",
                                         "link": "a:b"}]}
        with pytest.raises(ScenarioError, match="unknown kind"):
            validate_compiled(spec)

    def test_validate_missing_target(self):
        spec = {"name": "x", "events": [{"at_us": 0, "kind": "reboot"}]}
        with pytest.raises(ScenarioError, match="missing 'switch'"):
            validate_compiled(spec)


def layer_form(scenario: Scenario) -> dict:
    """The declarative JSON form of a builder scenario."""
    kinds = {cls: kind for kind, cls in LAYER_KINDS.items()}
    return {"name": scenario.name, "converge_us": scenario.converge_us,
            "workload": dict(scenario.workload),
            "layers": [{"kind": kinds[type(layer)],
                        **dataclasses.asdict(layer)}
                       for layer in scenario.layers]}


def field_paths(doc: dict) -> list[tuple]:
    """Every top-level field, and every field of every layer or event."""
    paths = [(key,) for key in doc]
    for key in ("layers", "events"):
        for i, item in enumerate(doc.get(key, [])):
            paths.extend((key, i, name) for name in item)
    return paths


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(BUILTIN_SCENARIOS)),
       compiled=st.booleans(), data=st.data(), value=json_values)
def test_any_mistyped_field_is_a_scenario_error(name, compiled, data,
                                                value):
    """Replace one field of a builtin scenario, in layer or compiled
    form, with any JSON value: ``compiled_spec`` returns a spec or raises
    ``ScenarioError``, never anything else."""
    scenario = BUILTIN_SCENARIOS[name]()
    doc = copy.deepcopy(scenario.compile() if compiled
                        else layer_form(scenario))
    *parents, leaf = data.draw(st.sampled_from(field_paths(doc)))
    target = doc
    for step in parents:
        target = target[step]
    target[leaf] = value
    try:
        spec = compiled_spec(doc)
    except ScenarioError:
        return
    assert isinstance(spec, dict)


def test_builtin_scenarios_round_trip_through_layer_form():
    for name, build in BUILTIN_SCENARIOS.items():
        scenario = build()
        assert compiled_spec(layer_form(scenario)) == scenario.compile()


def test_compiled_payload_is_checked():
    """Fields only the injector reads fail at validation, not mid-run."""
    for event, field in (
            ({"kind": "degrade", "factor": 1.5}, "factor"),
            ({"kind": "loss", "rate": "0.1"}, "rate"),
            ({"kind": "latency_shift", "extra_us": None}, "extra_us"),
            ({"kind": "latency_end", "direction": "up"}, "direction")):
        spec = {"name": "x", "events": [
            {"at_us": 0, "link": "a:b", **event}]}
        with pytest.raises(ScenarioError,
                           match=rf"event 0 \({event['kind']}\): {field}"):
            validate_compiled(spec)
    with pytest.raises(ScenarioError, match="converge_us"):
        validate_compiled({"name": "x", "converge_us": "x", "events": []})


def test_layer_errors_name_index_kind_and_field():
    doc = {"name": "x", "layers": [
        {"kind": "link_flap", "link": "a:b", "at_us": 0, "down_us": 1},
        {"kind": "random_loss", "link": "a:b", "at_us": 0,
         "duration_us": 1, "rate": True}]}
    with pytest.raises(ScenarioError,
                       match=r"^layer 1 \(random_loss\): rate must be "):
        compiled_spec(doc)


class TestExampleSpec:
    def test_example_scenario_is_short_and_valid(self):
        """The checked-in example must stay a ~20-line declarative spec."""
        from pathlib import Path
        path = Path(__file__).resolve().parents[2] \
            / "examples" / "scenarios" / "link_flap.json"
        text = path.read_text()
        assert len(text.strip().splitlines()) <= 20
        spec = compiled_spec(load_scenario(path))
        assert spec["events"]
