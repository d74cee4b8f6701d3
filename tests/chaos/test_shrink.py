"""Shrinker tests, including the acceptance-criteria demonstration:

a deliberately injected mapper bug (the ``buggy_mapper_factory`` fixture) is
caught by an oracle and the failing schedule shrinks to at most 5 events.
"""

from functools import partial

import pytest

from repro.chaos import corpus
from repro.chaos.corpus import replay_artifact
from repro.chaos.runner import (
    campaign_config_from_dict,
    demo_scenarios,
    run_campaign,
    run_cell,
)
from repro.chaos.scenario import Scenario, cut, drop, heal, kill_host
from repro.chaos.shrink import shrink_failure
from tests.chaos.reference_documents import artifact_from_shrink, shrink_result_to_dict

RING6 = {"kind": "ring", "size": 6}


def test_shrinking_a_passing_cell_is_an_error():
    cell = run_cell(Scenario("ok", (), seed=1), RING6, 0)
    assert cell.passed
    with pytest.raises(ValueError, match="failing cell"):
        shrink_failure(cell)


class TestInjectedBugDemonstration:
    def _fail(self, scenario, factory):
        cell = run_cell(
            scenario, RING6, 0, check_determinism=False,
            mapper_factory=factory,
        )
        assert not cell.passed, "the injected bug must be caught"
        return cell

    def test_oracle_catches_the_bug(self, buggy_mapper_factory):
        cell = self._fail(
            Scenario("one-cut", (cut(1, "ring-s3", 1),), seed=9),
            buggy_mapper_factory,
        )
        assert "quotient_map" in cell.failing

    def test_compound_failure_shrinks_to_at_most_5_events(
        self, buggy_mapper_factory
    ):
        compound = next(
            s for s in demo_scenarios() if s.name == "compound-failure"
        )
        cell = self._fail(compound, buggy_mapper_factory)
        shrunk = shrink_failure(cell)
        assert shrunk.n_events <= 5
        assert shrunk.final is not None and not shrunk.final.passed
        assert set(shrunk.failing) & set(cell.failing)

    def test_noise_is_stripped_down_to_the_trigger(self, buggy_mapper_factory):
        """Seven events of noise around one live cut shrink to ~the cut."""
        noisy = Scenario(
            "noisy",
            (
                drop(0, 0.05),
                drop(1, 0.0),
                cut(1, "ring-s2", 1),
                heal(2, "ring-s2", 1),
                cut(2, "ring-s4", 1),   # the persisting trigger
                kill_host(3, "ring-n005"),
                drop(3, 0.0),
            ),
            seed=13,
        )
        cell = self._fail(noisy, buggy_mapper_factory)
        shrunk = shrink_failure(cell)
        assert shrunk.n_events <= 2
        assert shrunk.runs <= 150  # the default budget is respected

    def test_shrunk_failure_promotes_to_a_replayable_artifact(
        self, buggy_mapper_factory, monkeypatch
    ):
        cell = self._fail(
            Scenario("promote", (cut(1, "ring-s3", 1),), seed=21),
            buggy_mapper_factory,
        )
        shrunk = shrink_failure(cell)
        artifact = artifact_from_shrink("bug-regression", shrunk)
        assert artifact["expect_failing"]
        # Replayed against the still-buggy mapper: green (bug still bites).
        with monkeypatch.context() as m:
            m.setattr(corpus, "run_cell", partial(run_cell, mapper_factory=buggy_mapper_factory))
            assert replay_artifact(artifact) == []
        # Replayed against the fixed (real) mapper: the artifact reports
        # the failure no longer reproduces, prompting its retirement.
        problems = replay_artifact(artifact)
        assert any("retire" in p for p in problems)


class TestShrinkMechanics:
    def test_topology_shrinks_too(self, buggy_mapper_factory):
        cell = run_cell(
            Scenario("t", (cut(1, "ring-s4", 1),), seed=2),
            RING6,
            0,
            check_determinism=False,
            mapper_factory=buggy_mapper_factory,
        )
        assert not cell.passed
        shrunk = shrink_failure(cell)
        assert shrunk.topology["size"] < 6

    def test_to_dict_records_the_reduction(self, buggy_mapper_factory):
        compound = next(
            s for s in demo_scenarios() if s.name == "compound-failure"
        )
        cell = run_cell(
            compound, RING6, 0, check_determinism=False,
            mapper_factory=buggy_mapper_factory,
        )
        shrunk = shrink_failure(cell)
        doc = shrink_result_to_dict(shrunk)
        assert doc["original_events"] == 5
        assert doc["shrunk_events"] <= doc["original_events"]
        assert doc["failing"]

    def test_a_cell_shrinks_under_its_own_campaign_settings(self):
        """An incremental cell held to a one-probe budget fails to converge;
        its candidates run under that budget too, so the shrunk cell still
        fails the same way."""
        config = campaign_config_from_dict({
            "name": "one-probe",
            "scenarios": [{
                "name": "cut-then-heal", "seed": 103, "cycles": 3,
                "events": [
                    {"action": "cut", "args": ["ring-s2", 1], "cycle": 1},
                    {"action": "heal", "args": ["ring-s2", 1], "cycle": 2},
                ],
            }],
            "topologies": [RING6],
            "seeds": [0],
            "incremental": True,
            "probe_budget": 1,
        })
        [cell] = run_campaign(config).failures()
        assert "remap_converges" in cell.failing
        shrunk = shrink_failure(cell)
        assert "remap_converges" in shrunk.failing
        assert not shrunk.final.passed
