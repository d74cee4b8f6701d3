"""Microbenchmarks of the substrate hot paths.

These are the operations the experiment harness executes millions of times;
tracking them guards against performance regressions in the simulator.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import lint_paths
from repro.core.mapper_protocol import create_mapper
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.simulator.path_eval import evaluate_route
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import switch_probe_turns
from repro.topology.analysis import core_decomposition
from repro.topology.generators import build_full_now, build_subcluster
from repro.topology.isomorphism import match_networks


@pytest.fixture(scope="module")
def now_c():
    return build_subcluster("C")


@pytest.fixture(scope="module")
def now_full():
    return build_full_now()


def test_route_evaluation(benchmark, now_c):
    turns = (5, 1, -2, 2, -1)
    result = benchmark(evaluate_route, now_c, "C-n00", turns)
    assert result.hops >= 1


def test_switch_probe_evaluation(benchmark, now_c):
    loop = switch_probe_turns((5, 1, 2))
    benchmark(evaluate_route, now_c, "C-n00", loop)


def test_single_probe_pair(benchmark, now_c):
    svc = QuiescentProbeService(now_c, "C-n00")
    benchmark(svc.response, (5, 1), host_first=False)


def test_core_decomposition_subcluster(benchmark, now_c):
    decomp = benchmark.pedantic(
        core_decomposition, args=(now_c, "C-svc"), rounds=1, iterations=1
    )
    assert decomp.search_depth == 11


def _map_subcluster(net, *, use_cache: bool):
    svc = QuiescentProbeService(net, "C-svc", use_cache=use_cache)
    result = create_mapper(
        "berkeley", svc, search_depth=11, host_first=False
    ).map()
    assert result.network.n_switches == 13
    return result, svc


def test_full_mapping_run_subcluster(benchmark, now_c):
    """The headline workload, evaluation cache on (the default)."""

    def run():
        return _map_subcluster(now_c, use_cache=True)[0]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.network.n_switches == 13


def test_full_mapping_run_subcluster_uncached(benchmark, now_c):
    """Cache-off arm: every probe re-walks via pure evaluate_route."""

    def run():
        return _map_subcluster(now_c, use_cache=False)[0]

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.network.n_switches == 13


def test_mapping_cache_speedup_at_least_2x(now_c):
    """The PR's acceptance bar: the prefix-trie cache at least halves the
    subcluster-C mapping time. Min-of-7 on both arms keeps scheduler noise
    out of the ratio."""
    import time

    def best_of(use_cache: bool) -> float:
        best = float("inf")
        for _ in range(7):
            start = time.perf_counter()
            _map_subcluster(now_c, use_cache=use_cache)
            best = min(best, time.perf_counter() - start)
        return best

    cached = best_of(True)
    uncached = best_of(False)
    speedup = uncached / cached
    assert speedup >= 2.0, (
        f"cache speedup {speedup:.2f}x < 2x "
        f"(cached {cached * 1e3:.2f} ms, uncached {uncached * 1e3:.2f} ms)"
    )


def test_floyd_warshall_full_now(benchmark, now_full):
    orientation = orient_updown(now_full)
    paths = benchmark.pedantic(
        all_pairs_updown_paths,
        args=(now_full, orientation),
        rounds=1,
        iterations=1,
    )
    assert paths.distance("C-n00", "B-n00") is not None


def test_isomorphism_check_full_now(benchmark, now_full):
    copy = now_full.copy()
    report = benchmark.pedantic(
        match_networks, args=(copy, now_full), rounds=1, iterations=1
    )
    assert report


def test_sanlint_whole_repo(benchmark):
    """One sanlint pass over ``src/repro``: parse + the per-module rules."""
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    diags = benchmark.pedantic(
        lint_paths, args=([package],), rounds=1, iterations=1
    )
    assert diags == []
