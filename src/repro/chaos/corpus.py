"""The regression corpus: committed chaos cells replayed by CI forever.

An **artifact** is one JSON file describing a (scenario, topology) pair and,
per seed, the expected outcome — which oracles passed, which failed, and the
digest of the final map. Two kinds live side by side in
``tests/chaos/corpus/``:

- campaign cells promoted from a green demonstration run (everything
  expected to pass; the digest pins the exact map), and
- shrunk failures promoted from a shrink run (``expect_failing`` lists the
  oracles that must *keep* failing until the underlying bug is fixed — a
  failing-test-first workflow).

Replay is exact: the artifact stores every input the cell runner needs, so
``replay_artifact`` either matches bit-for-bit or explains the first
divergence.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.chaos.runner import CellResult, run_cell
from repro.chaos.scenario import ScenarioError, scenario_from_dict, scenario_to_dict

__all__ = [
    "artifact_from_cells",
    "load_artifact",
    "load_corpus",
    "replay_artifact",
    "save_artifact",
    "write_campaign_corpus",
]

_SCHEMA = 1


def artifact_from_cells(name: str, cells: Iterable[CellResult]) -> dict[str, Any]:
    """Promote green campaign cells (same scenario+topology) to an artifact."""
    cells = list(cells)
    if not cells:
        raise ValueError("artifact needs at least one cell")
    first = cells[0]
    return {
        "schema": _SCHEMA,
        "name": name,
        "scenario": scenario_to_dict(first.scenario),
        "topology": dict(first.topology),
        "cells": [
            {
                "seed": c.seed,
                "map_digest": c.map_digest,
                "verdicts": {v.oracle: v.ok for v in c.verdicts},
            }
            for c in cells
        ],
    }


def save_artifact(path: str | Path, artifact: Mapping[str, Any]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != _SCHEMA:
        raise ScenarioError(f"{path}: unknown corpus schema {data.get('schema')!r}")
    return data


def load_corpus(directory: str | Path) -> list[dict[str, Any]]:
    """All artifacts of a corpus directory, in name order."""
    return [
        load_artifact(p) for p in sorted(Path(directory).glob("*.json"))
    ]


def replay_artifact(
    artifact: Mapping[str, Any],
) -> list[str]:
    """Re-run an artifact's cells; returns human-readable mismatches (empty = green).

    Verdict booleans must match the recording exactly, and (for passing
    cells) the final-map digest must too. ``expect_failing`` artifacts only
    require their recorded failures to persist — incidental verdicts that
    *improved* are reported so the fixed bug's artifact gets retired.
    """
    scenario = scenario_from_dict(artifact["scenario"])
    topology = artifact["topology"]
    expect_failing = set(artifact.get("expect_failing", ()))
    problems: list[str] = []
    for cell in artifact["cells"]:
        result = run_cell(scenario, topology, int(cell["seed"]))
        tag = f"{artifact.get('name', scenario.name)}[seed={cell['seed']}]"
        if result.invalid is not None:
            problems.append(f"{tag}: scenario no longer applies: {result.invalid}")
            continue
        got = {v.oracle: v.ok for v in result.verdicts}
        for oracle, expected_ok in sorted(cell["verdicts"].items()):
            actual = got.get(oracle)
            if actual is None:
                problems.append(f"{tag}: oracle {oracle} no longer runs")
            elif actual != expected_ok:
                if oracle in expect_failing and actual:
                    problems.append(
                        f"{tag}: {oracle} now PASSES — bug fixed? retire artifact"
                    )
                else:
                    problems.append(
                        f"{tag}: {oracle} expected ok={expected_ok}, got {actual}"
                    )
        if not expect_failing and cell.get("map_digest"):
            if result.map_digest != cell["map_digest"]:
                problems.append(
                    f"{tag}: map digest {result.map_digest} != "
                    f"recorded {cell['map_digest']}"
                )
    return problems


def write_campaign_corpus(directory: str | Path, report) -> list[Path]:
    """One artifact per (scenario, topology) grouping of a campaign report."""
    directory = Path(directory)
    groups: dict[str, list[CellResult]] = {}
    order: list[str] = []
    for cell in report.cells:
        key = cell.scenario.name
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(cell)
    written = []
    for idx, key in enumerate(order):
        name = f"{idx:03d}-{key}"
        artifact = artifact_from_cells(name, groups[key])
        written.append(save_artifact(directory / f"{name}.json", artifact))
    return written
