"""Failure shrinking: minimize a failing chaos cell to its smallest core.

When a campaign cell fails an oracle, the raw scenario is usually noisy —
twenty events of which one matters, a topology three times larger than the
bug needs. The shrinker runs a delta-debugging loop over the *serialized*
cell (events, cycle numbers, probe offsets, topology parameters), re-running
the cell after each candidate reduction and keeping it only if it still
fails **one of the same oracles** as the original. The output is the
smallest reproducing cell, ready to be committed under
``tests/chaos/corpus/`` as a regression artifact.

Everything here is deterministic: candidate order is fixed, the cell runner
is seeded, and the run budget is an explicit parameter — the same failure
always shrinks to the same artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.chaos.runner import CellResult, run_cell
from repro.chaos.scenario import ChaosEvent, Scenario
from repro.topology.generators import shrink_candidates

__all__ = ["ShrinkResult", "shrink_failure"]


@dataclass(slots=True)
class ShrinkResult:
    """What the shrinker produced, and what it cost."""

    original: CellResult
    scenario: Scenario
    topology: dict[str, Any]
    seed: int
    failing: tuple[str, ...]
    runs: int
    final: CellResult

    @property
    def n_events(self) -> int:
        return len(self.scenario.events)


#: Cell executions one shrink may spend.
MAX_RUNS = 150


class _Budget:
    """Counts cell executions; the shrinker stops reducing when exhausted."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def take(self) -> bool:
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _renumber(events: tuple[ChaosEvent, ...]) -> tuple[ChaosEvent, ...]:
    """Compact cycle numbers to 0..k-1, preserving relative order."""
    cycles = sorted({e.cycle for e in events})
    remap = {c: i for i, c in enumerate(cycles)}
    return tuple(replace(e, cycle=remap[e.cycle]) for e in events)


def shrink_failure(
    failure: CellResult,
) -> ShrinkResult:
    """Minimize a failing cell while preserving at least one failing oracle.

    Every candidate runs under the failing cell's own settings (its probe
    budget, settle cycles, mapper and incremental arm), so a failure that
    depends on them still reproduces.
    Determinism re-runs are disabled during the search (they would double
    every probe of every candidate); the final minimized cell is executed
    once more *with* the determinism check so the artifact records the full
    verdict set.
    """
    target = set(failure.failing)
    if not target:
        raise ValueError("shrink_failure needs a failing cell")
    budget = _Budget(MAX_RUNS)
    check_det = "deterministic" in target

    def reproduces(
        scenario: Scenario, topology: Mapping[str, Any]
    ) -> CellResult | None:
        """The candidate's result iff it still fails one of the target oracles."""
        if not budget.take():
            return None
        result = run_cell(
            scenario,
            topology,
            failure.seed,
            check_determinism=check_det,
            **failure.settings,
        )
        if result.invalid is not None:
            return None  # incoherent schedule, not a reproduction
        return result if target & set(result.failing) else None

    scenario = failure.scenario
    topology = dict(failure.topology)

    # Phase 1 — ddmin over the event list (classic delta debugging).
    events = list(scenario.events)
    granularity = 2
    while len(events) >= 2:
        chunk = max(1, len(events) // granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            keep = events[:start] + events[start + chunk :]
            if not keep and not events:
                continue
            cand = scenario.with_events(keep)
            if reproduces(cand, topology) is not None:
                events = keep
                scenario = cand
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
        if budget.used >= budget.limit:
            break

    # Try the empty schedule too (the failure may not need any event at all).
    if events:
        cand = scenario.with_events(())
        if reproduces(cand, topology) is not None:
            events = []
            scenario = cand

    # Phase 2 — compact cycle numbers (drop idle scheduled cycles).
    compacted = _renumber(tuple(events))
    if compacted != tuple(events):
        cand = scenario.with_events(compacted)
        if reproduces(cand, topology) is not None:
            scenario = cand
            events = list(compacted)

    # Phase 3 — normalize mid-map offsets to cycle boundaries.
    for i, ev in enumerate(events):
        if ev.after_probes == 0:
            continue
        trial = list(events)
        trial[i] = replace(ev, after_probes=0)
        cand = scenario.with_events(trial)
        if reproduces(cand, topology) is not None:
            scenario = cand
            events = trial

    # Phase 4 — shrink the topology (events may now reference missing
    # nodes; such candidates come back invalid and are rejected above).
    progress = True
    while progress and budget.used < budget.limit:
        progress = False
        for cand_topo in shrink_candidates(topology):
            if reproduces(scenario, cand_topo) is not None:
                topology = cand_topo
                progress = True
                break

    final = run_cell(scenario, topology, failure.seed, **failure.settings)
    return ShrinkResult(
        original=failure,
        scenario=scenario,
        topology=topology,
        seed=failure.seed,
        failing=tuple(sorted(target & set(final.failing)) or sorted(final.failing)),
        runs=budget.used,
        final=final,
    )
