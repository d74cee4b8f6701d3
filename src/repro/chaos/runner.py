"""The campaign runner: (scenario × seed × topology) grids of chaos cells.

One **cell** = one scenario run against one generated topology with one
seed. The runner drives the real
:class:`~repro.core.remapper.RemapperDaemon` — map, offset-invariant diff,
route recompilation, incremental distribution — through the scenario's
scheduled cycles plus fault-free settle cycles, applying events at cycle
boundaries and (via :class:`ChaosLayer` on the probe-service stack) after
exact probe counts mid-map. Every disturbance flows through the epoch counters, so the PR-2
evaluation cache is exercised, not bypassed.

Determinism is a first-class oracle: with ``check_determinism`` on, every
cell is executed twice from scratch and the two serialized traces must be
byte-identical. Nothing in a cell reads a wall clock or an unseeded RNG, so
a mismatch always means a genuine nondeterminism bug.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.chaos.apply import ScenarioApplier
from repro.chaos.oracles import (
    DEFAULT_ORACLES,
    CellContext,
    CycleOutcome,
    OracleVerdict,
)
from repro.chaos.scenario import (
    ChaosEvent,
    Scenario,
    ScenarioError,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.core.mapper import MappingError
from repro.core.remapper import RemapperDaemon
from repro.simulator.faults import FaultModel
from repro.simulator.stack import CountingLayer
from repro.topology.generators import build_topology
from repro.topology.model import Network, TopologyError
from repro.topology.serialize import network_to_dict

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "CellResult",
    "ChaosLayer",
    "campaign_config_from_dict",
    "demo_campaign",
    "run_campaign",
    "run_cell",
    "save_report",
]


# ---------------------------------------------------------------------------
# the mid-cycle event hook
# ---------------------------------------------------------------------------
class ChaosLayer(CountingLayer):
    """Middleware layer firing scheduled events after exact probe counts.

    "Mutate topology mid-map" needs a deterministic notion of *when*; the
    probe counter is the only clock the mapper and the scenario share.
    Every event whose ``after_probes`` threshold has been reached is
    applied *before* the probe is evaluated (the
    :class:`~repro.simulator.stack.CountingLayer` contract); equal
    thresholds fire in ``(after_probes, action, args)`` order so corpus
    digests are stable.
    """

    def __init__(self, applier: ScenarioApplier) -> None:
        self.applier = applier
        self.arm(())

    def arm(self, events: Iterable[ChaosEvent]) -> None:
        """Restart the probe clock with one cycle's mid-map events (the
        layer outlives the cycle's stack: the daemon reuses its layers)."""
        ordered = sorted(events, key=lambda e: (e.after_probes, e.action, e.args))
        super().__init__((e.after_probes, e) for e in ordered)

    def fire(self, payload) -> None:
        self.applier.apply(payload)


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class CellResult:
    """Outcome of one (scenario, topology, seed) cell."""

    scenario: Scenario
    topology: dict[str, Any]
    seed: int
    #: The :func:`run_cell` keywords the cell ran under (settle cycles,
    #: probe budget, mapper, incremental arm), so a re-run of it, or of a
    #: shrunk copy, runs as it did. Not part of :meth:`to_dict`.
    settings: dict[str, Any]
    cycles: list[CycleOutcome] = field(default_factory=list)
    verdicts: list[OracleVerdict] = field(default_factory=list)
    map_digest: str = ""
    invalid: str | None = None

    @property
    def passed(self) -> bool:
        return self.invalid is None and all(v.ok for v in self.verdicts)

    @property
    def failing(self) -> tuple[str, ...]:
        """Names of the oracles that rejected this cell."""
        if self.invalid is not None:
            return ("scenario_valid",)
        return tuple(v.oracle for v in self.verdicts if not v.ok)

    @property
    def total_probes(self) -> int:
        return sum(c.probes for c in self.cycles)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": scenario_to_dict(self.scenario),
            "topology": dict(self.topology),
            "seed": self.seed,
            "cycles": [c.to_dict() for c in self.cycles],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "map_digest": self.map_digest,
            "invalid": self.invalid,
            "passed": self.passed,
        }


def _combine_seeds(scenario_seed: int, cell_seed: int) -> int:
    """Mix the scenario's own seed with the sweep seed, deterministically."""
    return (scenario_seed * 1_000_003 + cell_seed) & 0x7FFFFFFF


def _map_digest(net: Network | None) -> str:
    if net is None:
        return ""
    doc = json.dumps(network_to_dict(net), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _execute_cell(
    scenario: Scenario,
    topology: Mapping[str, Any],
    seed: int,
    *,
    settle_cycles: int,
    probe_budget: int,
    mapper_factory: Callable | str | None,
    incremental: bool,
) -> CellResult:
    result = CellResult(
        scenario,
        dict(topology),
        seed,
        {
            "settle_cycles": settle_cycles,
            "probe_budget": probe_budget,
            "mapper_factory": mapper_factory,
            "incremental": incremental,
        },
    )
    try:
        net, mapper_host = build_topology(topology)
    except TopologyError as exc:
        result.invalid = f"topology: {exc}"
        return result

    faults = FaultModel(seed=_combine_seeds(scenario.seed, seed))
    applier = ScenarioApplier(net, faults)
    chaos = ChaosLayer(applier)
    daemon = RemapperDaemon(
        net,
        mapper_host,
        mapper_factory=mapper_factory,
        # The stack probes through ``faults``, the search depth is taken on
        # the fabric as the applier left it (a down cable is a missing
        # wire), and on the incremental arm cycle N+1 seeds its mapper from
        # cycle N's map plus the network's delta journal; every unseedable
        # situation (healed wire, probability reconfig, mid-map chaos
        # pushing the window) falls back to the plain
        # from-scratch cycle the oracles already police. Outcomes must
        # agree either way — that equivalence is exactly what replaying
        # the corpus under this arm checks.
        faults=faults,
        layers=(chaos,),
        incremental=incremental,
    )

    try:
        for idx in range(scenario.cycles + settle_cycles):
            scheduled = idx < scenario.cycles
            events = scenario.events_for(idx) if scheduled else ()
            for ev in events:
                if ev.after_probes == 0:
                    applier.apply(ev)
            chaos.arm(e for e in events if e.after_probes > 0)
            try:
                cyc = daemon.run_cycle()
            except (MappingError, ValueError) as exc:
                # MappingError: probe deductions contradicted each other.
                # ValueError: the map degenerated below what UP*/DOWN*
                # orientation needs (e.g. no switch reachable) — under
                # heavy faults that is a survivable cycle, not a crash.
                result.cycles.append(
                    CycleOutcome(
                        index=idx,
                        scheduled=scheduled,
                        probes=0,
                        hosts=0,
                        switches=0,
                        wires=0,
                        changed=True,
                        routes_recomputed=False,
                        deadlock_free=None,
                        error=str(exc),
                    )
                )
                continue
            produced = cyc.map_result.network
            result.cycles.append(
                CycleOutcome(
                    index=idx,
                    scheduled=scheduled,
                    probes=cyc.map_result.stats.total_probes,
                    hosts=produced.n_hosts,
                    switches=produced.n_switches,
                    wires=produced.n_wires,
                    changed=cyc.changed,
                    routes_recomputed=cyc.routes_recomputed,
                    deadlock_free=cyc.deadlock_free,
                )
            )
            if not scheduled and not cyc.changed:
                break  # converged; remaining settle cycles are redundant
    except ScenarioError as exc:
        result.invalid = str(exc)
        return result

    result.map_digest = _map_digest(daemon.current_map)
    ctx = CellContext(
        truth=net,
        faults=faults,
        mapper_host=mapper_host,
        final_map=daemon.current_map,
        final_tables=daemon.current_tables,
        cycles=result.cycles,
        probe_budget=probe_budget,
    )
    result.verdicts = [oracle.check(ctx) for oracle in DEFAULT_ORACLES]
    return result


def run_cell(
    scenario: Scenario,
    topology: Mapping[str, Any],
    seed: int,
    *,
    settle_cycles: int = 3,
    probe_budget: int = 1_000_000,
    check_determinism: bool = True,
    mapper_factory: Callable | str | None = None,
    incremental: bool = False,
) -> CellResult:
    """Run one chaos cell; optionally re-run it to prove determinism.

    ``mapper_factory(service, depth)`` overrides the daemon's mapper — the
    test suite uses it to inject deliberate bugs the oracles must catch,
    and the tournament harness passes registry names to score each
    algorithm's chaos robustness.
    ``incremental`` turns on the daemon's delta-seeded remap arm.
    """
    result = _execute_cell(
        scenario,
        topology,
        seed,
        settle_cycles=settle_cycles,
        probe_budget=probe_budget,
        mapper_factory=mapper_factory,
        incremental=incremental,
    )
    if check_determinism and result.invalid is None:
        rerun = _execute_cell(
            scenario,
            topology,
            seed,
            settle_cycles=settle_cycles,
            probe_budget=probe_budget,
            mapper_factory=mapper_factory,
            incremental=incremental,
        )
        identical = json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            rerun.to_dict(), sort_keys=True
        )
        result.verdicts.append(
            OracleVerdict(
                "deterministic",
                identical,
                "two runs, identical traces"
                if identical
                else "same seed produced different traces",
            )
        )
    return result


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignConfig:
    """A sweep grid: every scenario × every topology × every seed."""

    name: str
    scenarios: tuple[Scenario, ...]
    topologies: tuple[Mapping[str, Any], ...]
    seeds: tuple[int, ...] = field(kw_only=True)
    settle_cycles: int = 3
    probe_budget: int = 1_000_000
    check_determinism: bool = True
    #: Run every cell with the daemon's delta-seeded incremental arm.
    incremental: bool = False

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ScenarioError("a campaign needs at least one seed")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(
            self, "topologies", tuple(dict(t) for t in self.topologies)
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    @property
    def n_cells(self) -> int:
        return len(self.scenarios) * len(self.topologies) * len(self.seeds)


@dataclass(slots=True)
class CampaignReport:
    """All cell results of one campaign plus aggregate counters."""

    name: str
    cells: list[CellResult] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        oracle_failures: dict[str, int] = {}
        for cell in self.cells:
            for name in cell.failing:
                oracle_failures[name] = oracle_failures.get(name, 0) + 1
        return {
            "cells": len(self.cells),
            "passed": sum(1 for c in self.cells if c.passed),
            "failed": sum(1 for c in self.cells if not c.passed),
            "probes": sum(c.total_probes for c in self.cells),
            "cycles": sum(len(c.cycles) for c in self.cells),
            "oracle_failures": dict(sorted(oracle_failures.items())),
        }

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if not c.passed]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "summary": self.summary(),
            "cells": [c.to_dict() for c in self.cells],
        }


def run_campaign(
    config: CampaignConfig,
    *,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Sweep the full grid in deterministic order."""
    report = CampaignReport(name=config.name)
    for scenario in config.scenarios:
        for topology in config.topologies:
            for seed in config.seeds:
                cell = run_cell(
                    scenario,
                    topology,
                    seed,
                    settle_cycles=config.settle_cycles,
                    probe_budget=config.probe_budget,
                    check_determinism=config.check_determinism,
                    incremental=config.incremental,
                )
                report.cells.append(cell)
                if progress is not None:
                    status = "ok" if cell.passed else "FAIL"
                    progress(
                        f"[{len(report.cells)}/{config.n_cells}] "
                        f"{scenario.name} x {topology.get('kind')} x s{seed}: "
                        f"{status}"
                    )
    return report


def save_report(report: CampaignReport, path) -> None:
    """Write the campaign report as canonical (sorted, indented) JSON."""
    from pathlib import Path

    doc = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(doc)


def campaign_config_from_dict(data: Mapping[str, Any]) -> CampaignConfig:
    if "seeds" not in data:
        raise ScenarioError("campaign dict has no seeds")
    return CampaignConfig(
        name=str(data.get("name", "campaign")),
        scenarios=tuple(scenario_from_dict(s) for s in data.get("scenarios", ())),
        topologies=tuple(data.get("topologies", ())),
        seeds=tuple(data["seeds"]),
        settle_cycles=int(data.get("settle_cycles", 3)),
        probe_budget=int(data.get("probe_budget", 1_000_000)),
        check_determinism=bool(data.get("check_determinism", True)),
        incremental=bool(data.get("incremental", False)),
    )


# ---------------------------------------------------------------------------
# the pinned demonstration campaign (CI's chaos-smoke grid)
# ---------------------------------------------------------------------------
def demo_scenarios() -> tuple[Scenario, ...]:
    """Twenty-one pinned scenarios against the 6-switch ring topology.

    The ring (one host per switch; switch ``ring-sK`` carries its host at
    port 2 and its ring cables at ports 0/1) has enough redundancy that any
    single cut leaves everything reachable, while adjacent double cuts
    carve off a real sub-component — both regimes are represented.
    """
    from repro.chaos.scenario import (
        corrupt,
        cut,
        drop,
        heal,
        kill_host,
        kill_switch,
        plug,
        revive_host,
        revive_switch,
        unplug,
    )

    return (
        Scenario("quiet-baseline", (), seed=101),
        Scenario("single-cut", (cut(1, "ring-s2", 1),), seed=102),
        Scenario(
            "cut-then-heal",
            (cut(1, "ring-s2", 1), heal(2, "ring-s2", 1)),
            seed=103,
        ),
        Scenario(
            "double-cut-splits-ring",
            (cut(1, "ring-s1", 1), cut(1, "ring-s3", 1)),
            seed=104,
        ),
        Scenario("host-dies", (kill_host(1, "ring-n003"),), seed=105),
        Scenario(
            "host-dies-and-returns",
            (kill_host(1, "ring-n003"), revive_host(2, "ring-n003")),
            seed=106,
        ),
        Scenario("switch-dies", (kill_switch(1, "ring-s4"),), seed=107),
        Scenario(
            "switch-dies-and-returns",
            (kill_switch(1, "ring-s4"), revive_switch(2, "ring-s4")),
            seed=108,
        ),
        Scenario(
            "drop-ramp",
            (drop(1, 0.3), drop(2, 0.0)),
            seed=109,
        ),
        Scenario(
            "corrupt-ramp",
            (corrupt(1, 0.25), corrupt(2, 0.0)),
            seed=110,
        ),
        Scenario(
            "drop-and-corrupt-pulse",
            (drop(1, 0.2), corrupt(1, 0.2), drop(2, 0.0), corrupt(2, 0.0)),
            seed=111,
        ),
        Scenario(
            "mid-map-cut",
            (cut(1, "ring-s3", 0, after_probes=10),),
            seed=112,
        ),
        Scenario(
            "mid-map-switch-death",
            (kill_switch(1, "ring-s5", after_probes=5),),
            seed=113,
        ),
        Scenario(
            "mid-map-drop-pulse",
            (drop(1, 0.4, after_probes=8), drop(2, 0.0)),
            seed=114,
        ),
        Scenario("unplug-cable", (unplug(1, "ring-s2", 0),), seed=115),
        Scenario(
            "rewire-host",
            # ring-n003 is unplugged from ring-s3 and re-plugged into a free
            # port of ring-s1 — the host *moves*, the remapper must notice.
            (unplug(1, "ring-n003", 0), plug(1, "ring-n003", 0, "ring-s1", 3)),
            seed=116,
        ),
        Scenario(
            "grow-chord",
            (plug(1, "ring-s0", 3, "ring-s3", 3),),
            seed=117,
        ),
        Scenario(
            "cut-at-mapper-switch",
            (cut(1, "ring-s0", 0),),
            seed=118,
        ),
        Scenario(
            "flapping-link",
            (
                cut(1, "ring-s4", 1),
                heal(2, "ring-s4", 1),
                cut(3, "ring-s4", 1),
                heal(4, "ring-s4", 1),
            ),
            seed=119,
        ),
        Scenario(
            "compound-failure",
            (
                kill_host(1, "ring-n002"),
                cut(1, "ring-s4", 1),
                drop(2, 0.15),
                drop(3, 0.0),
                heal(3, "ring-s4", 1),
            ),
            seed=120,
        ),
        Scenario(
            # Multi-fault exercise for the incremental arm: the double cut
            # at cycle 1 is a bounded removals-only delta (seedable), the
            # heal at cycle 2 *adds* connectivity, which no seed can prove
            # absent — the daemon must fall back to a from-scratch map and
            # still converge to the same verdicts as the plain arm.
            "double-cut-then-partial-heal",
            (
                cut(1, "ring-s2", 1),
                cut(1, "ring-s4", 1),
                heal(2, "ring-s2", 1),
            ),
            seed=121,
        ),
    )


def demo_campaign() -> CampaignConfig:
    """The committed demonstration grid: 21 scenarios × 1 topology × 3 seeds."""
    return CampaignConfig(
        name="demo-ring6",
        scenarios=demo_scenarios(),
        topologies=({"kind": "ring", "size": 6},),
        seeds=(0, 1, 2),
        settle_cycles=3,
        probe_budget=250_000,
        check_determinism=True,
    )
