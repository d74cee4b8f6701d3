"""Tournament harness tests: the grid, the standings, the drift gate,
and consistency of the committed ``benchmarks/BENCH_tournament.json``."""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.tournament import (
    FAMILIES,
    TournamentReport,
    check_report,
    family_names,
    get_family,
    load_report,
    run_tournament,
)
from repro.topology.generators import build_topology
from repro.tournament.families import Family, quick_family_names

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_tournament.json"


@pytest.fixture(scope="module")
def small_run():
    return run_tournament(
        mappers=("berkeley", "selfid"),
        families=("ring",),
        quick=True,  # the circuit model only
        chaos=False,
    )


def test_families_cover_the_issue_grid():
    assert family_names() == ["fat-tree", "now", "random", "ring", "torus"]
    # the CI smoke grid drops only the big NOW system
    assert quick_family_names() == ["fat-tree", "random", "ring", "torus"]
    for name in family_names():
        assert get_family(name) is FAMILIES[name]
    with pytest.raises(ValueError, match="unknown family"):
        get_family("clos")


def test_families_are_registry_specs():
    """A family is a spec the one topology registry builds; the NOW family
    names its mapping host, every other maps from the first host."""
    assert [f.name for f in fields(Family)] == ["name", "summary", "spec", "quick"]
    for family in FAMILIES.values():
        net, mapper = build_topology(family.spec)
        assert mapper == family.spec.get("mapper", sorted(net.hosts)[0])
    assert FAMILIES["now"].spec == {"kind": "now-full", "mapper": "C-svc"}


def test_small_grid_runs_and_scores(small_run):
    assert len(small_run.cells) == 2
    assert all(c.isomorphic for c in small_run.cells)
    assert all(c.probes > 0 and c.sim_ms > 0 for c in small_run.cells)
    board = small_run.leaderboard()
    assert [row["mapper"] for row in board] == ["selfid", "berkeley"]
    assert board[0]["wins"] == 1
    rendered = small_run.render()
    assert "selfid" in rendered and "standings" in rendered


def test_report_round_trips_through_dict(small_run):
    doc = small_run.to_dict()
    back = TournamentReport.from_dict(doc)
    assert back.cells == small_run.cells
    assert back.to_dict() == doc


def test_check_report_flags_probe_and_correctness_drift(small_run):
    assert check_report(small_run, small_run) == []
    drifted = TournamentReport(
        mappers=small_run.mappers,
        families=small_run.families,
        collisions=small_run.collisions,
        cells=[
            replace(c, probes=c.probes + 5) if c.mapper == "berkeley" else c
            for c in small_run.cells
        ],
    )
    problems = check_report(drifted, small_run)
    assert len(problems) == 1 and "probes" in problems[0]
    # a generous tolerance forgives the drift
    assert check_report(drifted, small_run, tolerance=0.5) == []
    wrong = TournamentReport(
        mappers=small_run.mappers,
        families=small_run.families,
        collisions=small_run.collisions,
        cells=[replace(c, isomorphic=False) for c in small_run.cells],
    )
    assert any("correctness" in p for p in check_report(wrong, small_run))


def test_check_report_requires_cells_to_exist_in_baseline(small_run):
    empty = TournamentReport(mappers=[], families=[], collisions=[])
    problems = check_report(small_run, empty)
    assert len(problems) == len(small_run.cells)
    assert all("not in baseline" in p for p in problems)
    # the reverse direction (quick grid vs full baseline) is fine
    assert check_report(empty, small_run) == []


def test_committed_baseline_is_current(small_run):
    """A fresh cell must reproduce the committed BENCH_tournament.json
    exactly — the committed file is a regression gate, so it must never
    go stale against the code."""
    baseline = load_report(BENCH)
    assert set(baseline.families) == set(family_names())
    assert len(baseline.families) >= 4
    assert len(baseline.mappers) >= 3
    assert all(c.isomorphic for c in baseline.cells)
    assert all(r.passed for r in baseline.robustness)
    assert check_report(small_run, baseline) == []


def test_chaos_robustness_rows_score_the_daemon():
    report = run_tournament(
        mappers=("berkeley",),
        families=("ring",),
        quick=True,  # the circuit model only
        chaos=True,
    )
    assert [r.scenario for r in report.robustness] == [
        "quiet-baseline",
        "single-cut",
        "cut-then-heal",
    ]
    assert all(r.passed and r.probes > 0 for r in report.robustness)
