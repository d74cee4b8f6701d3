"""Regression-gate tests for the standalone perf harness.

The gate itself must be trustworthy: these tests fabricate result JSONs
(no benchmarks actually run) and check that a synthetic regression beyond
the tolerance exits non-zero while noise within it passes.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
HARNESS = REPO_ROOT / "benchmarks" / "run_benchmarks.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("run_benchmarks", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(**medians_us: float) -> dict:
    return {
        "schema": 1,
        "benchmarks": {
            name: {"median_us": value, "repeats": 5}
            for name, value in medians_us.items()
        },
    }


class TestFindRegressions:
    def test_25_percent_regression_trips_20_percent_gate(self, harness):
        base = _doc(full_mapping=10_000.0, route_eval=15.0)
        cur = _doc(full_mapping=12_500.0, route_eval=15.0)
        problems = harness.find_regressions(base, cur, tolerance=0.20)
        assert len(problems) == 1
        assert problems[0].startswith("full_mapping:")

    def test_noise_within_tolerance_passes(self, harness):
        base = _doc(full_mapping=10_000.0)
        cur = _doc(full_mapping=11_500.0)  # +15%
        assert harness.find_regressions(base, cur, tolerance=0.20) == []

    def test_speedups_never_trip(self, harness):
        base = _doc(full_mapping=10_000.0)
        cur = _doc(full_mapping=4_000.0)
        assert harness.find_regressions(base, cur, tolerance=0.20) == []

    def test_added_and_retired_benchmarks_are_ignored(self, harness):
        base = _doc(retired=10.0, shared=100.0)
        cur = _doc(added=10_000.0, shared=100.0)
        assert harness.find_regressions(base, cur, tolerance=0.20) == []


class TestGateCli:
    """`--input` + `--check-against` is the pure compare path: no suite
    runs, so the test exercises exactly the exit-code contract CI sees."""

    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_synthetic_25_percent_regression_exits_nonzero(
        self, harness, tmp_path, capsys
    ):
        base = self._write(tmp_path, "base.json", _doc(full_mapping=10_000.0))
        cur = self._write(tmp_path, "cur.json", _doc(full_mapping=12_500.0))
        assert harness.main(["--check-against", base, "--input", cur]) == 1
        assert "REGRESSIONS" in capsys.readouterr().err

    def test_within_tolerance_exits_zero(self, harness, tmp_path):
        base = self._write(tmp_path, "base.json", _doc(full_mapping=10_000.0))
        cur = self._write(tmp_path, "cur.json", _doc(full_mapping=11_000.0))
        assert harness.main(["--check-against", base, "--input", cur]) == 0

    def test_custom_tolerance_is_respected(self, harness, tmp_path):
        base = self._write(tmp_path, "base.json", _doc(full_mapping=10_000.0))
        cur = self._write(tmp_path, "cur.json", _doc(full_mapping=12_500.0))
        args = ["--check-against", base, "--input", cur, "--tolerance", "0.30"]
        assert harness.main(args) == 0

    def test_missing_out_dir_is_created_before_the_first_arm(
        self, harness, tmp_path, monkeypatch
    ):
        out = tmp_path / "missing" / "dir"
        seen: list[bool] = []

        def arm():
            seen.append(out.is_dir())
            return 0.001, {}

        monkeypatch.setattr(harness, "SUITES", {"micro": {"b": arm}})
        assert harness.main(["--suite", "micro", "--quick", "--out", str(out)]) == 0
        assert seen and all(seen)
        assert json.loads((out / "BENCH_micro.current.json").read_text())["benchmarks"]["b"]

    def test_ungated_quick_run_leaves_the_baseline_alone(
        self, harness, tmp_path, monkeypatch
    ):
        """A quick run skips tiers and repeats, so it must not replace the
        committed baseline even without --check-against."""
        doc = _doc(b=1.0)
        monkeypatch.setattr(harness, "run_suite", lambda *a, **k: doc)
        args = ["--suite", "micro", "--quick", "--out", str(tmp_path)]
        assert harness.main(args) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_micro.current.json"]


class TestScaleSuite:
    """The datacenter-tier arms and their CI-facing run policies."""

    def test_all_tiers_registered(self, harness):
        assert set(harness.SCALE_SUITE) == {
            "fat_tree_map_3tier_k8",
            "fat_tree_map_3tier_k16",
            "fat_tree_map_3tier_k30",
        }

    def test_smoke_tier_survives_quick(self, harness):
        """CI gates on --quick: the k=8 tier must actually run there."""
        assert "fat_tree_map_3tier_k8" not in harness.SLOW_BENCHES

    def test_large_tiers_skipped_by_quick(self, harness):
        assert {
            "fat_tree_map_3tier_k16", "fat_tree_map_3tier_k30"
        } <= harness.SLOW_BENCHES

    def test_acceptance_tier_is_one_shot(self, harness):
        assert "fat_tree_map_3tier_k30" in harness.ONE_SHOT_BENCHES

    def test_one_shot_benches_run_once_without_warmup(
        self, harness, monkeypatch
    ):
        calls: list[int] = []

        def fake():
            calls.append(1)
            return 0.001, {}

        monkeypatch.setattr(harness, "ONE_SHOT_BENCHES", frozenset({"b"}))
        doc = harness.run_suite({"b": fake}, repeats=5, quick=False)
        assert len(calls) == 1
        assert doc["benchmarks"]["b"]["repeats"] == 1

    def test_ordinary_benches_still_warm_up(self, harness):
        calls: list[int] = []

        def fake():
            calls.append(1)
            return 0.001, {}

        doc = harness.run_suite({"b": fake}, repeats=3, quick=False)
        assert len(calls) == 4  # 1 warm-up + 3 samples
        assert doc["benchmarks"]["b"]["repeats"] == 3


class TestRemapSuite:
    """The incremental-remap arms and the committed acceptance numbers."""

    def test_every_arm_registered_and_quick_safe(self, harness):
        assert set(harness.REMAP_SUITE) == {
            "remap_single_cut_full_now",
            "remap_single_cut_fattree8",
            "remap_single_cut_now_routes",
        }
        # CI gates on --quick: every arm must actually run there.
        assert not set(harness.REMAP_SUITE) & harness.SLOW_BENCHES

    def test_committed_baseline_hits_the_acceptance_ratios(self):
        """The headline acceptance numbers: one cable cut on the full NOW
        remaps with >=10x fewer probes and >=4x less wall-clock than
        from-scratch, and the committed baseline proves it. The wall floor
        is lower than the probe floor because the seeded arm runs on the
        fresh stack every production cycle builds, where re-walking the
        witnesses and rebuilding the seed's network cost about a fifth of
        a scratch map of the NOW whatever the probe count (4.6x recorded;
        10.4x on the fat tree)."""
        doc = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_remap.json").read_text()
        )
        for name in ("remap_single_cut_full_now", "remap_single_cut_fattree8"):
            extra = doc["benchmarks"][name]["extra"]
            assert extra["probe_ratio"] >= 10.0, name
            assert extra["wall_ratio"] >= 4.0, name
            assert extra["subtrees_kept"] > 0, name
            assert extra["probes"] < extra["scratch_probes"], name


    def test_committed_route_arm_patched_fewer_cells_than_it_holds(self):
        """The route half after the NOW cut ran through the route memo: it
        was patched (its generation byte-identical to the full compile's,
        asserted inside the bench), recompiled fewer cells than the
        generation has chains, and ran faster than the full compile."""
        doc = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_remap.json").read_text()
        )
        extra = doc["benchmarks"]["remap_single_cut_now_routes"]["extra"]
        assert extra["cells_run"] < extra["chains"]
        assert extra["wall_ratio"] > 1.0


class TestSuiteRegistry:
    def test_thirteen_arms_and_every_committed_name_is_one(self, harness):
        """Whole cycles and per-layer rows belong to ``benchmarks/e2e``; what
        is left here is exactly these thirteen arms. ``find_regressions`` compares
        only names common to both documents, so a baseline entry whose arm
        was renamed or dropped would silently stop being gated: every
        committed name must be a registered arm of its own suite."""
        assert {name: set(suite) for name, suite in harness.SUITES.items()} == {
            "micro": {
                "route_eval",
                "switch_probe_eval",
                "probe_pair",
                "core_decomposition_full_now",
                "route_compile_full_now",
                "route_document_full_now",
                "sanlint_whole_repo",
            },
            "scale": {
                "fat_tree_map_3tier_k8",
                "fat_tree_map_3tier_k16",
                "fat_tree_map_3tier_k30",
            },
            "remap": {
                "remap_single_cut_full_now",
                "remap_single_cut_fattree8",
                "remap_single_cut_now_routes",
            },
        }
        committed = {
            path.name
            for path in (REPO_ROOT / "benchmarks").glob("BENCH_*.json")
            if not path.name.endswith(".current.json")  # a gated run's output
        }
        assert committed == {
            *(f"BENCH_{name}.json" for name in harness.SUITES),
            "BENCH_tournament.json",  # exact, owned by `san-map tournament`
        }
        for name, suite in harness.SUITES.items():
            doc = json.loads(
                (REPO_ROOT / "benchmarks" / f"BENCH_{name}.json").read_text()
            )
            assert set(doc["benchmarks"]) <= set(suite), name


class TestCommittedBaselines:
    @pytest.mark.parametrize(
        "name",
        [
            "BENCH_micro.json",
            "BENCH_scale.json",
            "BENCH_remap.json",
        ],
    )
    def test_baseline_is_committed_and_well_formed(self, name):
        doc = json.loads((REPO_ROOT / "benchmarks" / name).read_text())
        assert doc["schema"] == 1
        assert doc["benchmarks"]
        for entry in doc["benchmarks"].values():
            assert entry["median_us"] > 0

    def test_micro_baseline_gates_the_search_depth_layer(self, harness):
        """``core_decomposition_full_now`` is the fragment number behind
        the e2e ledger's ``topology.search_depth_ms``; the gate only
        compares names present in the baseline, so it must be committed —
        and below the ~700 ms the per-node network simplex used to take."""
        doc = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_micro.json").read_text()
        )
        assert "core_decomposition_full_now" in harness.MICRO_SUITE
        assert "core_decomposition_full_now" not in harness.SLOW_BENCHES
        entry = doc["benchmarks"]["core_decomposition_full_now"]
        assert entry["extra"] == {"q_values": 140, "search_depth": 16}
        assert entry["median_us"] < 100_000

    def test_micro_baseline_gates_the_route_compile(self, harness):
        """``route_compile_full_now`` is the fragment behind the ledger's
        ``routing.compile_ms`` and ``routing.deadlock_ms``: committed, never
        skipped by ``--quick``, and compiling per destination switch (the
        mapped full NOW's 2 397 tails, each one of 553 chains plus a last
        channel, over 332 channels, from at most 1 000 hop compiles, where
        one in-tree per destination host took 3 662)."""
        doc = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_micro.json").read_text()
        )
        assert "route_compile_full_now" in harness.MICRO_SUITE
        assert "route_compile_full_now" not in harness.SLOW_BENCHES
        extra = doc["benchmarks"]["route_compile_full_now"]["extra"]
        assert (extra["chains"], extra["tails"], extra["channels"]) == (553, 2397, 332)
        assert extra["hop_compiles"] <= 1000

    def test_micro_baseline_gates_the_route_document(self, harness):
        """``route_document_full_now`` is the fragment behind the ledger's
        ``service.result_encode_ms`` (tables half), ``service.pickle_ms``
        and ``service.tables_decode_ms``: committed, never skipped by
        ``--quick``, and crossing the mapped full NOW's generation as its
        numbers — 553 chains, 2 397 tails, 9 900 routes in under 110 kB
        pickled (the version-3 document took 254 kB)."""
        doc = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_micro.json").read_text()
        )
        assert "route_document_full_now" in harness.MICRO_SUITE
        assert "route_document_full_now" not in harness.SLOW_BENCHES
        extra = doc["benchmarks"]["route_document_full_now"]["extra"]
        assert (extra["chains"], extra["tails"], extra["routes"]) == (553, 2397, 9900)
        assert extra["pickled_bytes"] < 110_000

    def test_scale_baseline_covers_every_tier(self):
        doc = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_scale.json").read_text()
        )
        benches = doc["benchmarks"]
        assert set(benches) == {
            "fat_tree_map_3tier_k8",
            "fat_tree_map_3tier_k16",
            "fat_tree_map_3tier_k30",
        }
        assert benches["fat_tree_map_3tier_k30"]["extra"]["switches"] == 1125
        # The scale curve only means something if each tier verified its map.
        for entry in benches.values():
            assert entry["extra"]["probes"] > 0

    def test_scale_baseline_says_what_a_probe_costs(self, harness):
        """ROADMAP item 1 asked why a probe costs more on the k=30 tier
        than in ``probe_pair``, and these rows could not say. Each now
        carries the map-only cost of one probe, the trie the run left
        behind and how often the node backstop flushed it on the way. The
        counts repeat exactly; the cost is a timing, so only its shape and
        ROADMAP item 4's bar (k=30 within 2x of k=8) are pinned."""
        doc = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_scale.json").read_text()
        )
        extras = {
            name.rsplit("_", 1)[1]: entry["extra"]
            for name, entry in doc["benchmarks"].items()
        }
        for extra in extras.values():
            assert isinstance(extra["us_per_probe"], float)
            assert extra["us_per_probe"] > 0
            assert isinstance(extra["cache_nodes"], int)
            assert 0 < extra["cache_nodes"] <= extra["probes"]
            assert isinstance(extra["cache_invalidations"], int)
        assert [extras[k]["cache_invalidations"] for k in ("k8", "k16", "k30")] == [
            0, 0, 3,
        ]
        assert extras["k30"]["us_per_probe"] <= 2 * extras["k8"]["us_per_probe"]
        _, live = harness.SCALE_SUITE["fat_tree_map_3tier_k8"]()
        assert live.pop("us_per_probe") > 0
        committed = dict(extras["k8"])
        del committed["us_per_probe"]
        # What the collector did and the resident set depend on the process
        # the map ran in, not on the map.
        for measured in ("gc_collections", "gc_ms", "max_rss_mb"):
            assert live.pop(measured) >= 0
            del committed[measured]
        assert live == committed
