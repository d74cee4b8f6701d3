"""Scenario-DSL tests: validation, normalization, serialization."""

import pytest

from repro.chaos.runner import CampaignConfig
from repro.chaos.scenario import (
    ChaosEvent,
    Scenario,
    ScenarioError,
    cut,
    drop,
    heal,
    kill_switch,
    plug,
    scenario_from_dict,
    scenario_to_dict,
)


class TestEventValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ScenarioError, match="unknown action"):
            ChaosEvent(0, "explode", ("s0",))

    def test_arity_enforced(self):
        with pytest.raises(ScenarioError, match="takes 2 args"):
            ChaosEvent(0, "cut", ("s0",))

    def test_negative_cycle_rejected(self):
        with pytest.raises(ScenarioError, match="cycle"):
            ChaosEvent(-1, "drop", (0.5,))

    def test_negative_after_probes_rejected(self):
        with pytest.raises(ScenarioError, match="after_probes"):
            ChaosEvent(0, "drop", (0.5,), after_probes=-2)

    def test_probability_range_enforced(self):
        with pytest.raises(ScenarioError, match=r"\[0, 1\]"):
            drop(0, 1.5)
        with pytest.raises(ScenarioError, match=r"\[0, 1\]"):
            ChaosEvent(0, "corrupt", ("not-a-number",))

    def test_sugar_builds_the_right_events(self):
        ev = plug(2, "s0", 3, "s3", 3)
        assert ev.action == "plug"
        assert ev.args == ("s0", 3, "s3", 3)
        assert ev.cycle == 2 and ev.after_probes == 0
        ev = drop(1, 0.5, after_probes=7)
        assert (ev.action, ev.args, ev.cycle, ev.after_probes) == ("drop", (0.5,), 1, 7)


class TestScenarioNormalization:
    def test_events_sorted_by_time(self):
        s = Scenario(
            "x",
            (heal(3, "s0", 1), cut(1, "s0", 1), drop(1, 0.2, after_probes=9)),
            seed=1,
        )
        assert [(e.cycle, e.after_probes) for e in s.events] == [
            (1, 0), (1, 9), (3, 0),
        ]

    def test_cycles_derived_from_last_event(self):
        assert Scenario("x", (cut(4, "s0", 1),), seed=1).cycles == 5
        assert Scenario("empty", (), seed=1).cycles == 1

    def test_declared_cycles_must_cover_events(self):
        with pytest.raises(ScenarioError, match="declares 2 cycles"):
            Scenario("x", (cut(4, "s0", 1),), cycles=2, seed=1)

    def test_events_for_partitions_by_cycle(self):
        s = Scenario("x", (cut(0, "s0", 1), kill_switch(2, "s1")), seed=1)
        assert [e.action for e in s.events_for(0)] == ["cut"]
        assert s.events_for(1) == ()
        assert [e.action for e in s.events_for(2)] == ["kill_switch"]

    def test_with_events_rederives_cycles(self):
        s = Scenario("x", (cut(5, "s0", 1),), seed=1)
        assert s.with_events((cut(0, "s0", 1),)).cycles == 1

    def test_name_required(self):
        with pytest.raises(ScenarioError, match="name"):
            Scenario("", (), seed=1)


class TestSerialization:
    def test_roundtrip(self):
        s = Scenario(
            "rt", (cut(1, "s2", 1), drop(2, 0.3, after_probes=4)), seed=99
        )
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_seed_is_mandatory(self):
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict({"name": "x", "events": []})

    def test_constructors_reject_a_missing_or_positional_seed(self):
        """Seeds are keyword-only with no default: an unseeded or
        positionally seeded schedule cannot be built at all."""
        with pytest.raises(TypeError):
            Scenario("x", ())
        with pytest.raises(TypeError):
            Scenario("x", (), 0, 42)
        with pytest.raises(TypeError):
            CampaignConfig("grid", scenarios=(), topologies=())
        with pytest.raises(TypeError):
            CampaignConfig("grid", (), (), (0,))

    def test_event_dict_missing_key(self):
        with pytest.raises(ScenarioError, match="missing key"):
            ChaosEvent.from_dict({"action": "cut"})

    def test_after_probes_omitted_when_zero(self):
        assert "after_probes" not in cut(0, "s0", 1).to_dict()
        assert cut(0, "s0", 1, after_probes=3).to_dict()["after_probes"] == 3
