"""Corpus tests: artifact round-trips and the committed regression grid.

``test_committed_corpus_replays_green`` is the chaos-smoke gate: the 21
artifacts under ``tests/chaos/corpus/`` (63 cells) must replay exactly —
same verdicts, same final-map digests — on every supported Python. The
incremental variant replays the same grid under the daemon's delta-seeded
arm: oracle verdicts must agree (digests may not — a seeded map is
isomorphic to, not byte-identical with, the from-scratch one).
"""

import json
from pathlib import Path

import pytest

from repro.chaos.corpus import (
    artifact_from_cells,
    load_artifact,
    load_corpus,
    replay_artifact,
    save_artifact,
)
from repro.chaos.runner import demo_campaign, run_cell
from repro.chaos.scenario import Scenario, ScenarioError, cut, scenario_from_dict

CORPUS_DIR = Path(__file__).parent / "corpus"
RING6 = {"kind": "ring", "size": 6}


class TestArtifactMechanics:
    def _cell(self):
        return run_cell(
            Scenario("art", (cut(1, "ring-s2", 1),), seed=8), RING6, 0
        )

    def test_roundtrip_through_disk(self, tmp_path):
        artifact = artifact_from_cells("art", [self._cell()])
        path = save_artifact(tmp_path / "art.json", artifact)
        assert load_artifact(path) == artifact

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ScenarioError, match="schema"):
            load_artifact(path)

    def test_replay_of_fresh_recording_is_green(self):
        cell = self._cell()
        artifact = artifact_from_cells("art", [cell])
        assert replay_artifact(artifact) == []

    def test_replay_detects_a_digest_change(self):
        cell = self._cell()
        artifact = artifact_from_cells("art", [cell])
        artifact["cells"][0]["map_digest"] = "0" * 16
        problems = replay_artifact(artifact)
        assert any("digest" in p for p in problems)

    def test_replay_detects_a_verdict_flip(self):
        cell = self._cell()
        artifact = artifact_from_cells("art", [cell])
        artifact["cells"][0]["verdicts"]["quotient_map"] = False
        problems = replay_artifact(artifact)
        assert any("quotient_map" in p for p in problems)

    def test_no_artifact_without_cells(self):
        with pytest.raises(ValueError, match="at least one cell"):
            artifact_from_cells("empty", [])


class TestCommittedCorpus:
    def test_corpus_covers_the_demo_grid(self):
        artifacts = load_corpus(CORPUS_DIR)
        assert len(artifacts) == 21
        cells = sum(len(a["cells"]) for a in artifacts)
        assert cells >= 50  # the acceptance floor (actual: 60)
        names = {a["scenario"]["name"] for a in artifacts}
        assert names == {s.name for s in demo_campaign().scenarios}

    def test_every_artifact_is_seeded_and_green(self):
        for artifact in load_corpus(CORPUS_DIR):
            assert isinstance(artifact["scenario"]["seed"], int)
            for cell in artifact["cells"]:
                assert cell["map_digest"]
                assert all(cell["verdicts"].values()), artifact["name"]

    def test_committed_corpus_replays_green(self):
        """The long gate: every committed cell re-runs bit-for-bit."""
        problems = []
        for artifact in load_corpus(CORPUS_DIR):
            problems.extend(replay_artifact(artifact))
        assert problems == []

    def test_committed_corpus_replays_green_incrementally(self):
        """The incremental arm reaches the same oracle verdicts on every
        committed cell — seeded remaps change probe counts and switch
        numbering, never outcomes. Determinism re-runs are skipped here;
        the plain gate above already proves the cells deterministic."""
        problems = []
        for artifact in load_corpus(CORPUS_DIR):
            scenario = scenario_from_dict(artifact["scenario"])
            for cell in artifact["cells"]:
                result = run_cell(
                    scenario, artifact["topology"], int(cell["seed"]),
                    check_determinism=False, incremental=True,
                )
                got = {v.oracle: v.ok for v in result.verdicts}
                want = {k: v for k, v in cell["verdicts"].items() if k != "deterministic"}
                if result.invalid is not None or got != want:
                    problems.append((artifact["name"], cell["seed"], result.invalid, got))
        assert problems == []
