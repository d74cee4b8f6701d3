"""The mapper tournament: every registered algorithm, raced.

One cell = (mapper, topology family, collision model): build the family's
network, run one :func:`~repro.core.remapper.map_cycle` on it, verify the
produced map against the actual core, and record probe count, simulated
time, exploration/merge counts and wall-clock. A second sweep scores
*chaos robustness*: each mapper drives the remapper daemon through a
small pinned fault schedule (quiet / single-cut / cut-then-heal on the
6-switch ring) under the full oracle battery of :mod:`repro.chaos`.

Everything except wall-clock is deterministic, so the committed
``benchmarks/BENCH_tournament.json`` doubles as a regression gate:
:func:`check_report` compares probe counts, correctness verdicts and
robustness outcomes cell-by-cell and reports any drift.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.core.mapper_protocol import mapper_names
from repro.core.remapper import map_cycle
from repro.simulator.collision import CircuitModel, CollisionModel, CutThroughModel
from repro.simulator.faults import NO_FAULTS
from repro.topology.analysis import core_network, effective_network
from repro.topology.generators import build_topology
from repro.topology.isomorphism import match_networks
from repro.tournament.families import (
    FAMILIES,
    Family,
    family_names,
    get_family,
    quick_family_names,
)

__all__ = [
    "RobustnessRow",
    "TournamentCell",
    "TournamentReport",
    "check_report",
    "load_report",
    "run_tournament",
    "save_report",
]

#: Collision models raced by the full grid. Cut-through changes which
#: self-intersecting probes survive (Section 2.3.1), hence probe counts.
COLLISIONS: dict[str, Callable[[], CollisionModel]] = {
    "circuit": CircuitModel,
    "cut-through": lambda: CutThroughModel(slack_hops=1),
}

@dataclass(frozen=True)
class TournamentCell:
    """One (mapper, family, collision) measurement."""

    mapper: str
    family: str
    collision: str
    probes: int
    hits: int
    isomorphic: bool
    mismatch: str
    explorations: int
    merges: int
    peak_model_nodes: int
    #: Simulated network time (deterministic, from the timing model).
    sim_ms: float
    #: Host wall-clock (informational only; never gated).
    wall_ms: float

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.mapper, self.family, self.collision)


@dataclass(frozen=True)
class RobustnessRow:
    """One mapper driving the remap daemon through one chaos scenario."""

    mapper: str
    scenario: str
    seed: int
    passed: bool
    failing: tuple[str, ...]
    probes: int

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.mapper, self.scenario, self.seed)


@dataclass
class TournamentReport:
    """The full grid plus derived standings."""

    mappers: list[str]
    families: list[str]
    collisions: list[str]
    cells: list[TournamentCell] = field(default_factory=list)
    robustness: list[RobustnessRow] = field(default_factory=list)

    def leaderboard(self) -> list[dict[str, Any]]:
        """Per-mapper standings: correctness, probe totals, race wins.

        A mapper *wins* a (family, collision) column when it produced an
        isomorphic map with the fewest probes among the correct entries.
        Probe totals only sum correct cells — a wrong map's probe count
        is not a price worth comparing.
        """
        by_column: dict[tuple[str, str], list[TournamentCell]] = {}
        for cell in self.cells:
            by_column.setdefault((cell.family, cell.collision), []).append(cell)
        wins: dict[str, int] = {m: 0 for m in self.mappers}
        for column in by_column.values():
            correct = [c for c in column if c.isomorphic]
            if not correct:
                continue
            best = min(c.probes for c in correct)
            for c in correct:
                if c.probes == best:
                    wins[c.mapper] += 1
        rows = []
        for mapper in self.mappers:
            mine = [c for c in self.cells if c.mapper == mapper]
            correct = [c for c in mine if c.isomorphic]
            robust = [r for r in self.robustness if r.mapper == mapper]
            rows.append(
                {
                    "mapper": mapper,
                    "cells": len(mine),
                    "correct": len(correct),
                    "wins": wins[mapper],
                    "probes": sum(c.probes for c in correct),
                    "sim_ms": round(sum(c.sim_ms for c in correct), 3),
                    "robust_passed": sum(r.passed for r in robust),
                    "robust_cells": len(robust),
                }
            )
        rows.sort(key=lambda r: (-r["wins"], r["probes"], r["mapper"]))
        return rows

    def render(self) -> str:
        """Human-readable tables: the grid, then the standings."""
        lines = []
        header = f"{'mapper':<20}{'family':<11}{'collision':<13}" \
                 f"{'probes':>8}{'expl':>7}{'sim ms':>10}  ok"
        lines.append(header)
        lines.append("-" * len(header))
        for c in sorted(self.cells, key=lambda c: c.key):
            verdict = "yes" if c.isomorphic else f"NO ({c.mismatch})"
            lines.append(
                f"{c.mapper:<20}{c.family:<11}{c.collision:<13}"
                f"{c.probes:>8}{c.explorations:>7}{c.sim_ms:>10.1f}  {verdict}"
            )
        lines.append("")
        lines.append(
            f"{'standings':<20}{'wins':>5}{'correct':>9}{'probes':>9}"
            f"{'robust':>8}"
        )
        for row in self.leaderboard():
            robust = (
                f"{row['robust_passed']}/{row['robust_cells']}"
                if row["robust_cells"]
                else "-"
            )
            lines.append(
                f"{row['mapper']:<20}{row['wins']:>5}"
                f"{row['correct']:>7}/{row['cells']}{row['probes']:>9}"
                f"{robust:>8}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "mappers": list(self.mappers),
            "families": list(self.families),
            "collisions": list(self.collisions),
            "cells": [asdict(c) for c in self.cells],
            "robustness": [asdict(r) for r in self.robustness],
            "leaderboard": self.leaderboard(),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TournamentReport":
        cells = [TournamentCell(**c) for c in doc.get("cells", ())]
        robustness = [
            RobustnessRow(**{**r, "failing": tuple(r.get("failing", ()))})
            for r in doc.get("robustness", ())
        ]
        return cls(
            mappers=list(doc.get("mappers", ())),
            families=list(doc.get("families", ())),
            collisions=list(doc.get("collisions", ())),
            cells=cells,
            robustness=robustness,
        )


def _run_cell(mapper: str, family: Family, collision: str) -> TournamentCell:
    net, host = build_topology(family.spec)
    start = time.perf_counter()
    result, _ = map_cycle(
        net,
        host,
        mapper=mapper,
        max_explorations=50_000,
        collision=COLLISIONS[collision](),
    )
    wall_ms = (time.perf_counter() - start) * 1e3
    reachable = effective_network(net, NO_FAULTS, host)
    report = match_networks(result.network, core_network(reachable))
    return TournamentCell(
        mapper=mapper,
        family=family.name,
        collision=collision,
        probes=result.stats.total_probes,
        hits=result.stats.total_hits,
        isomorphic=bool(report),
        mismatch="" if report else report.reason,
        explorations=result.explorations,
        merges=result.merges,
        peak_model_nodes=result.peak_model_nodes,
        sim_ms=round(result.stats.elapsed_ms, 3),
        wall_ms=round(wall_ms, 2),
    )


def _run_robustness(mapper: str) -> list[RobustnessRow]:
    """Drive the remap daemon with this mapper through the first three
    pinned chaos scenarios (quiet, single cut, cut then heal)."""
    from repro.chaos.runner import demo_scenarios, run_cell

    rows = []
    for scenario in demo_scenarios()[:3]:
        cell = run_cell(
            scenario,
            {"kind": "ring", "size": 6},
            0,
            mapper_factory=mapper,
        )
        rows.append(
            RobustnessRow(
                mapper=mapper,
                scenario=scenario.name,
                seed=0,
                passed=cell.passed,
                failing=cell.failing,
                probes=cell.total_probes,
            )
        )
    return rows


def run_tournament(
    *,
    mappers: Iterable[str] | None = None,
    families: Iterable[str] | None = None,
    collisions: Iterable[str] | None = None,
    quick: bool = False,
    chaos: bool = True,
    progress: Callable[[str], None] | None = None,
) -> TournamentReport:
    """Sweep mappers x families x collision models (plus chaos cells).

    ``quick`` shrinks the grid to the CI smoke tier: the small families
    only (everything but the full NOW system) under the circuit model.
    Explicit ``families``/``collisions`` arguments override it.
    """
    mapper_list = sorted(mappers) if mappers is not None else mapper_names()
    if families is not None:
        family_list = sorted(families)
    elif quick:
        family_list = quick_family_names()
    else:
        family_list = family_names()
    if collisions is not None:
        collision_list = sorted(collisions)
    elif quick:
        collision_list = ["circuit"]
    else:
        collision_list = sorted(COLLISIONS)
    for name in collision_list:
        if name not in COLLISIONS:
            known = ", ".join(sorted(COLLISIONS))
            raise ValueError(f"unknown collision model {name!r} (known: {known})")

    report = TournamentReport(
        mappers=mapper_list, families=family_list, collisions=collision_list
    )
    for family_name in family_list:
        family = get_family(family_name)
        for collision in collision_list:
            for mapper in mapper_list:
                cell = _run_cell(mapper, family, collision)
                report.cells.append(cell)
                if progress is not None:
                    verdict = "ok" if cell.isomorphic else "MISMATCH"
                    progress(
                        f"{mapper} x {family_name} x {collision}: "
                        f"{cell.probes} probes, {verdict}"
                    )
    if chaos:
        for mapper in mapper_list:
            rows = _run_robustness(mapper)
            report.robustness.extend(rows)
            if progress is not None:
                passed = sum(r.passed for r in rows)
                progress(f"{mapper} chaos robustness: {passed}/{len(rows)}")
    return report


def save_report(report: TournamentReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )


def load_report(path: str | Path) -> TournamentReport:
    return TournamentReport.from_dict(json.loads(Path(path).read_text()))


def check_report(
    current: TournamentReport,
    baseline: TournamentReport,
    *,
    tolerance: float = 0.0,
) -> list[str]:
    """Compare a run against the committed baseline; return problems.

    Only deterministic fields are gated: probe counts (within a relative
    ``tolerance``; 0 means exact), correctness verdicts, and chaos
    robustness outcomes. Wall-clock and simulated-time drift are never
    failures. Cells present only in the baseline are ignored so the CI
    ``--quick`` grid can gate against the committed full grid; cells
    missing *from* the baseline are failures (a new mapper or family
    must be committed).
    """
    problems: list[str] = []
    base_cells = {c.key: c for c in baseline.cells}
    for cell in current.cells:
        base = base_cells.get(cell.key)
        label = "/".join(cell.key)
        if base is None:
            problems.append(f"{label}: not in baseline (regenerate the file)")
            continue
        if cell.isomorphic != base.isomorphic:
            problems.append(
                f"{label}: correctness changed "
                f"{base.isomorphic} -> {cell.isomorphic}"
            )
        allowed = base.probes * tolerance
        if abs(cell.probes - base.probes) > allowed:
            problems.append(
                f"{label}: probes {base.probes} -> {cell.probes} "
                f"(tolerance {tolerance:g})"
            )
    base_rob = {r.key: r for r in baseline.robustness}
    for row in current.robustness:
        base = base_rob.get(row.key)
        label = f"{row.mapper}/chaos:{row.scenario}"
        if base is None:
            problems.append(f"{label}: not in baseline (regenerate the file)")
            continue
        if row.passed != base.passed:
            problems.append(
                f"{label}: robustness changed {base.passed} -> {row.passed} "
                f"(failing: {', '.join(row.failing) or '-'})"
            )
    return problems
