"""Campaign-runner tests: topology specs, cells, mid-map events, grids."""

import json

import pytest

from repro.chaos.runner import (
    CampaignConfig,
    ChaosLayer,
    campaign_config_from_dict,
    demo_campaign,
    run_campaign,
    run_cell,
)
from repro.chaos.apply import ScenarioApplier
from repro.chaos.scenario import (
    Scenario,
    ScenarioError,
    cut,
    drop,
    kill_switch,
)
from repro.simulator.faults import FaultModel
from repro.simulator.stack import build_service_stack
from repro.topology.generators import NAMED_TOPOLOGIES, build_topology
from repro.topology.model import TopologyError
from tests.chaos.reference_documents import campaign_config_to_dict

RING6 = {"kind": "ring", "size": 6}


class TestBuildTopology:
    """Cells build through the one registry (``repro.topology.generators``)."""

    @pytest.mark.parametrize(
        "spec",
        [
            RING6,
            {"kind": "chain", "size": 3},
            {"kind": "mesh", "rows": 2, "cols": 3},
            {"kind": "torus", "size": 3},
            {"kind": "hypercube", "size": 3},
            {"kind": "star", "size": 4},
            {"kind": "random", "n_switches": 3, "n_hosts": 4, "seed": 2},
            {"kind": "now-c"},
        ],
    )
    def test_known_kinds_build(self, spec):
        net, mapper = build_topology(spec)
        assert mapper in net.hosts
        assert net.n_switches >= 1

    def test_mapper_override(self):
        _, mapper = build_topology({**RING6, "mapper": "ring-n004"})
        assert mapper == "ring-n004"

    def test_unknown_kind_rejected(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            build_topology({"kind": "klein-bottle"})
        cell = run_cell(Scenario("q", (), seed=1), {"kind": "klein-bottle"}, 0)
        assert cell.invalid == "topology: unknown topology kind 'klein-bottle'"
        assert cell.failing == ("scenario_valid",)

    def test_unhashable_kind_marks_the_cell_invalid(self):
        """A kind read from JSON may be a list; it names no kind, it does
        not crash the campaign."""
        cell = run_cell(Scenario("q", (), seed=1), {"kind": ["ring"]}, 0)
        assert cell.invalid == "topology: unknown topology kind ['ring']"

    def test_misspelled_parameter_marks_the_cell_invalid(self):
        """A chaos config's parameter the kind does not read is refused as
        a tenant spec's is, not mapped on the kind's defaults."""
        cell = run_cell(Scenario("q", (), seed=1), {"kind": "ring", "sise": 8}, 0)
        assert cell.invalid == "topology: topology 'ring' reads no params ['sise']"
        assert cell.failing == ("scenario_valid",)

    def test_unknown_mapper_rejected(self):
        with pytest.raises(TopologyError, match="mapper host"):
            build_topology({**RING6, "mapper": "ghost"})
        cell = run_cell(Scenario("q", (), seed=1), {**RING6, "mapper": "ghost"}, 0)
        assert cell.invalid == "topology: mapper host 'ghost' not in topology"

    @pytest.mark.parametrize(
        "kind", [k for k in NAMED_TOPOLOGIES if k not in ("now-full", "fat-tree-3tier")]
    )
    def test_every_kind_runs_a_quiet_cell(self, kind):
        """Every registry kind is a chaos kind: its default spec maps,
        routes and passes the oracles (the two big fabrics are left to the
        tournament and the benchmarks)."""
        cell = run_cell(
            Scenario("quiet", (), seed=1), {"kind": kind}, 0, check_determinism=False
        )
        assert cell.passed, (kind, cell.invalid, cell.failing)


class TestMidMapEvents:
    def test_events_fire_after_exact_probe_counts(self):
        net, mapper = build_topology(RING6)
        faults = FaultModel(seed=0)
        applier = ScenarioApplier(net, faults)
        chaos = ChaosLayer(applier)
        chaos.arm([drop(0, 0.5, after_probes=3), drop(0, 0.9, after_probes=5)])
        svc = build_service_stack(
            net,
            mapper,
            layers=(
                chaos,
            ),
            faults=faults,
        )
        for n_sent, expected_drop in [
            (1, 0.0), (2, 0.0), (3, 0.0), (4, 0.5), (5, 0.5), (6, 0.9),
        ]:
            svc.probe_switch((1,))
            assert faults.drop_prob == expected_drop, f"after probe {n_sent}"

    def test_mid_map_cut_lands_during_the_cycle(self):
        """A cell with an after_probes cut still settles and passes: the
        settle cycles remap against the post-cut network."""
        scenario = Scenario(
            "mid", (cut(0, "ring-s3", 0, after_probes=10),), seed=5
        )
        cell = run_cell(scenario, RING6, 0, check_determinism=False)
        assert cell.invalid is None
        assert cell.passed, cell.failing


class TestRunCell:
    def test_quiet_cell_passes_everything(self):
        cell = run_cell(Scenario("quiet", (), seed=1), RING6, 0)
        assert cell.passed
        assert {v.oracle for v in cell.verdicts} == {
            "quotient_map",
            "routes_deadlock_free",
            "routes_deliver",
            "remap_converges",
            "no_contradiction",
            "deterministic",
        }
        assert cell.map_digest

    def test_incoherent_schedule_marked_invalid(self):
        scenario = Scenario("bad", (cut(0, "ring-s0", 7),), seed=1)
        cell = run_cell(scenario, RING6, 0)
        assert cell.invalid is not None
        assert not cell.passed
        assert cell.failing == ("scenario_valid",)

    def test_dead_mapper_island_is_survivable(self):
        """Killing the mapper's own switch degrades the cell, it must not
        crash the harness; the degenerate-network oracle path applies."""
        scenario = Scenario("island", (kill_switch(0, "ring-s0"),), seed=1)
        cell = run_cell(scenario, RING6, 0, check_determinism=False)
        assert cell.invalid is None  # ran to completion

    def test_result_roundtrips_to_json(self):
        cell = run_cell(
            Scenario("rt", (cut(1, "ring-s2", 1),), seed=3), RING6, 0
        )
        doc = json.dumps(cell.to_dict(), sort_keys=True)
        again = json.loads(doc)
        assert again["passed"] == cell.passed
        assert again["scenario"]["seed"] == 3


class TestCampaign:
    def test_grid_is_the_full_product(self):
        config = CampaignConfig(
            "g",
            scenarios=(Scenario("a", (), seed=1), Scenario("b", (), seed=2)),
            topologies=(RING6, {"kind": "chain", "size": 3}),
            seeds=(0, 1),
            check_determinism=False,
        )
        report = run_campaign(config)
        assert len(report.cells) == config.n_cells == 8
        assert report.passed
        summary = report.summary()
        assert summary["cells"] == 8 and summary["failed"] == 0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ScenarioError, match="at least one seed"):
            CampaignConfig("g", scenarios=(), topologies=(), seeds=())

    def test_config_roundtrips_through_dict(self):
        config = demo_campaign()
        again = campaign_config_from_dict(campaign_config_to_dict(config))
        assert again == config

    def test_config_dict_requires_seeds(self):
        with pytest.raises(ScenarioError, match="no seeds"):
            campaign_config_from_dict({"name": "x"})

    def test_demo_campaign_shape(self):
        config = demo_campaign()
        assert config.n_cells == 63  # the committed acceptance grid
        assert len(config.scenarios) == 21
        assert len({s.name for s in config.scenarios}) == 21
        assert all(s.seed for s in config.scenarios)


class TestIncrementalArm:
    def test_incremental_cell_matches_plain_verdicts(self):
        scenario = Scenario("inc-cut", (cut(1, "ring-s2", 1),), seed=7)
        plain = run_cell(scenario, RING6, 0, check_determinism=False)
        seeded = run_cell(
            scenario, RING6, 0, check_determinism=False, incremental=True
        )
        assert plain.passed and seeded.passed
        assert {v.oracle: v.ok for v in plain.verdicts} == {
            v.oracle: v.ok for v in seeded.verdicts
        }

    def test_incremental_cell_is_deterministic(self):
        scenario = Scenario("inc-det", (cut(1, "ring-s3", 0),), seed=9)
        cell = run_cell(scenario, RING6, 1, incremental=True)
        assert cell.passed  # includes the two-runs-identical verdict

    def test_promoted_fallback_scenario_green_both_arms(self):
        # The heal event adds connectivity mid-campaign: the incremental
        # arm must fall back to from-scratch for that cycle and still
        # converge to passing verdicts.
        scenario = next(
            s
            for s in demo_campaign().scenarios
            if s.name == "double-cut-then-partial-heal"
        )
        for incremental in (False, True):
            cell = run_cell(
                scenario,
                RING6,
                0,
                check_determinism=False,
                incremental=incremental,
            )
            assert cell.passed, (incremental, cell.failing)

    def test_config_carries_the_incremental_flag(self):
        config = CampaignConfig(
            "inc",
            scenarios=(Scenario("a", (), seed=1),),
            topologies=(RING6,),
            seeds=(0,),
            incremental=True,
        )
        again = campaign_config_from_dict(campaign_config_to_dict(config))
        assert again == config and again.incremental
