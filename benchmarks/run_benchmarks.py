#!/usr/bin/env python
"""The perf harness for what the cycle ledger does not own.

Whole remap cycles and every per-layer row are timed by ``benchmarks/e2e``
(``BENCHMARK.json``). The three suites here cover the rest, standalone (no
pytest needed), with numbers and a pass/fail gate from one command:

- ``micro`` — substrate hot paths below a cycle: one route evaluation, one
  switch-probe loopback, one probe pair, the full-NOW core decomposition
  behind ``recommended_search_depth``, the route compile plus deadlock
  check on the mapped full NOW, that generation's document across the
  pool (encode, pickle, unpickle, decode), one sanlint pass over
  ``src/repro``;
- ``scale`` — datacenter-tier three-tier fat trees (80 / 320 / 1125
  switches), each mapped end-to-end and verified. The k=8 tier is the CI
  smoke gate; the larger tiers are ``--quick``-skipped and the 1125-switch
  tier records a single sample;
- ``remap`` — incremental remapping: one cable cut on a warm, fully
  mapped fabric, the seeded remap timed against a from-scratch run (the
  >=10x probe-reduction acceptance ratio is asserted inside each map
  bench), and the NOW cut's route half with the route memo against
  without it (byte-identical generations asserted inside).

Each benchmark repeats ``--repeats`` times and records the **median**
wall-clock time per operation plus any extra counters (probe totals,
cache hit rates from :class:`repro.simulator.path_eval.EvalCacheStats`).
Results land next to this script (override with ``--out``): a full,
ungated run refreshes the committed baseline ``BENCH_<suite>.json``; a
``--quick`` or gated (``--check-against``) run writes
``BENCH_<suite>.current.json`` beside it and never overwrites it.

Regression gating::

    python benchmarks/run_benchmarks.py --suite micro \
        --check-against benchmarks/BENCH_micro.json [--tolerance 0.20]

fails (exit 1) when any benchmark's median exceeds the baseline by more
than the tolerance. ``--input FILE`` compares a pre-recorded result JSON
instead of running the suite — the unit tests use that to verify the gate
itself, and it lets CI split measure and compare steps.

Baselines are committed; refresh them (see docs/PERFORMANCE.md) with::

    python benchmarks/run_benchmarks.py --suite all
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

if str(REPO_ROOT / "src") not in sys.path:  # runnable without installing
    sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA_VERSION = 1

#: A benchmark body: runs the workload once and returns
#: (seconds_per_operation, extra_counters).
Bench = Callable[[], tuple[float, dict]]


# ---------------------------------------------------------------------------
# micro suite
# ---------------------------------------------------------------------------

def _time_op(fn: Callable[[], object], iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def _micro_route_eval() -> tuple[float, dict]:
    from repro.simulator.path_eval import evaluate_route
    from repro.topology.generators import build_subcluster

    net = build_subcluster("C")
    turns = (5, 1, -2, 2, -1)
    return _time_op(lambda: evaluate_route(net, "C-n00", turns), 2000), {}


def _micro_switch_probe_eval() -> tuple[float, dict]:
    from repro.simulator.path_eval import evaluate_route
    from repro.topology.generators import build_subcluster

    net = build_subcluster("C")
    # The switch-probe loopback string a1..ak 0 -ak..-a1 of (5, 1, 2).
    loop = (5, 1, 2, 0, -2, -1, -5)
    return _time_op(lambda: evaluate_route(net, "C-n00", loop), 2000), {}


def _micro_probe_pair() -> tuple[float, dict]:
    from repro.simulator.stack import build_service_stack
    from repro.topology.generators import build_subcluster

    svc = build_service_stack(build_subcluster("C"), "C-n00")
    turns = (5, 1)
    # The mapper's pair: the switch probe, then the host probe on a miss.
    per_op = _time_op(
        lambda: svc.probe_switch(turns) or svc.probe_host(turns), 2000
    )
    stats = svc.eval_cache_stats
    return per_op, {"cache_hit_rate": round(stats.hit_rate, 4)}


def _micro_core_decomposition() -> tuple[float, dict]:
    """``D``, ``F`` and every ``Q(v)`` of the full NOW: the whole cost of
    ``recommended_search_depth``, which every default remap cycle pays."""
    from repro.topology.analysis import core_decomposition
    from repro.topology.generators import build_full_now

    net = build_full_now()
    h0 = sorted(net.hosts)[0]
    decomp = core_decomposition(net, h0)
    assert (decomp.diameter, decomp.q, decomp.search_depth) == (8, 7, 16)
    per_op = _time_op(lambda: core_decomposition(net, h0), 5)
    return per_op, {
        "search_depth": decomp.search_depth,
        "q_values": len(decomp.q_values),
    }


def _micro_route_compile() -> tuple[float, dict]:
    """``compile_route_tables`` then ``routes_deadlock_free`` on the mapped
    full NOW: the fragment behind the e2e ledger's ``routing.compile_ms``
    and ``routing.deadlock_ms``, without the map and paths in front. The
    extras say what one compile holds — chains, tails (each a chain plus
    its last channel) and channels — and how many chain hops it compiled
    (counted on an untimed compile)."""
    from repro.core.remapper import map_cycle
    from repro.routing import compile_routes
    from repro.routing.deadlock import routes_deadlock_free
    from repro.routing.paths import all_pairs_updown_paths
    from repro.routing.updown import orient_updown
    from repro.topology.generators import build_full_now

    net = build_full_now()
    mapped = map_cycle(net, sorted(net.hosts)[0])[0].network
    paths = all_pairs_updown_paths(mapped, orient_updown(mapped))
    hop, hops = compile_routes._hop, []

    def counted_hop(*args):
        hops.append(args)
        return hop(*args)

    compile_routes._hop = counted_hop
    try:
        tables = compile_routes.compile_route_tables(mapped, paths)
    finally:
        compile_routes._hop = hop

    def compile_and_check() -> None:
        assert routes_deadlock_free(compile_routes.compile_route_tables(mapped, paths))

    per_op = _time_op(compile_and_check, 20)
    return per_op, {
        "chains": len(tables.chains),
        "tails": len(tables.pairs),
        "channels": len(tables.channels),
        "hop_compiles": len(hops),
    }


def _micro_route_document() -> tuple[float, dict]:
    """The served generation's trip across the pool on the mapped full
    NOW: ``route_tables_to_dict`` in the worker, pickle, unpickle and
    ``route_tables_from_dict`` on the event loop — the fragment behind the
    e2e ledger's ``service.result_encode_ms`` (its tables half),
    ``service.pickle_ms`` and ``service.tables_decode_ms``. The extras say
    what crosses: pickled bytes, chains, tails and routes."""
    import pickle

    from repro.core.remapper import map_cycle, route_cycle
    from repro.service.serialize import route_tables_from_dict, route_tables_to_dict
    from repro.topology.generators import build_full_now

    net = build_full_now()
    tables = route_cycle(map_cycle(net, sorted(net.hosts)[0])[0].network)

    def cross():
        return route_tables_from_dict(pickle.loads(pickle.dumps(route_tables_to_dict(tables))))

    assert cross().numbered == tables.numbered
    per_op = _time_op(cross, 20)
    doc = route_tables_to_dict(tables)
    return per_op, {
        "pickled_bytes": len(pickle.dumps(doc)),
        "chains": len(doc["chains"]),
        "tails": len(doc["tails"]),
        "routes": sum(len(table["routes"]) for table in doc["tables"].values()),
    }


def _micro_sanlint() -> tuple[float, dict]:
    """One sanlint pass over ``src/repro``: parse + the per-module rules."""
    from repro.analysis.engine import lint_paths

    start = time.perf_counter()
    diags = lint_paths([REPO_ROOT / "src" / "repro"])
    elapsed = time.perf_counter() - start
    assert diags == [], "src/repro must lint clean"
    return elapsed, {}


MICRO_SUITE: dict[str, Bench] = {
    "route_eval": _micro_route_eval,
    "switch_probe_eval": _micro_switch_probe_eval,
    "probe_pair": _micro_probe_pair,
    "core_decomposition_full_now": _micro_core_decomposition,
    "route_compile_full_now": _micro_route_compile,
    "route_document_full_now": _micro_route_document,
    "sanlint_whole_repo": _micro_sanlint,
}


# ---------------------------------------------------------------------------
# scale suite: datacenter-tier fat trees
# ---------------------------------------------------------------------------

def _scale_map(k: int, hosts_per_edge: int | None = None) -> tuple[float, dict]:
    """Map a three-tier fat tree end-to-end and verify the result.

    Times service construction + mapping + isomorphism check — the whole
    "point a mapper at an unknown fabric" operation — so the scale curve
    reflects what a user of the tier would actually wait for.
    """
    from repro.core.mapper_protocol import create_mapper
    from repro.simulator.stack import build_service_stack
    from repro.topology.generators import (
        build_three_tier_fat_tree,
        three_tier_counts,
    )
    from repro.topology.isomorphism import match_networks

    net = build_three_tier_fat_tree(k, hosts_per_edge=hosts_per_edge)
    # The trie is freed by reference counts, but the mapper's model graph
    # is cyclic: left alone, the previous sample's would be reclaimed
    # inside this one.
    gc.collect()
    start = time.perf_counter()
    svc = build_service_stack(net, net.hosts[0])
    mapper = create_mapper("berkeley", svc, search_depth=6, host_first=False)
    with _CollectorWatch() as collector:
        map_start = time.perf_counter()
        result = mapper.map()
        map_seconds = time.perf_counter() - map_start
    report = match_networks(result.network, net)
    elapsed = time.perf_counter() - start
    assert report.isomorphic, report.reason
    n_switches, n_hosts = three_tier_counts(k, hosts_per_edge)
    assert result.network.n_switches == n_switches
    cache = svc.eval_cache_stats
    return elapsed, {
        "switches": n_switches,
        "hosts": n_hosts,
        "probes": result.stats.total_probes,
        "explorations": result.explorations,
        "merges": result.merges,
        # Why a tier costs what it costs per probe: the map-only time of
        # one probe, the trie it left behind, and how often the node
        # backstop flushed that trie on the way.
        "us_per_probe": round(map_seconds * 1e6 / result.stats.total_probes, 2),
        "cache_nodes": cache.nodes,
        "cache_invalidations": cache.invalidations,
        # What the cycle collector did during the map, and the process's
        # high-water resident set so far (tiers run smallest first).
        "gc_collections": collector.collections,
        "gc_ms": round(collector.seconds * 1e3, 1),
        "max_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


class _CollectorWatch:
    """Counts the cycle collector's passes and time inside a block.

    Observation only: a ``gc.callbacks`` hook that reads a clock, never
    triggers or defers a collection.
    """

    def __init__(self) -> None:
        self.collections = 0
        self.seconds = 0.0
        self._started = 0.0

    def _hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections += 1
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "_CollectorWatch":
        gc.callbacks.append(self._hook)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._hook)


SCALE_SUITE: dict[str, Bench] = {
    # 80 switches / 128 hosts (~10^2 ports): the CI smoke tier.
    "fat_tree_map_3tier_k8": lambda: _scale_map(8),
    # 320 switches / 1024 hosts (~10^3 ports).
    "fat_tree_map_3tier_k16": lambda: _scale_map(16),
    # 1125 switches / 900 hosts: the 1000+-switch acceptance tier.
    "fat_tree_map_3tier_k30": lambda: _scale_map(30, 2),
}

# ---------------------------------------------------------------------------
# remap suite: seeded incremental remap vs from-scratch after one cable cut
# ---------------------------------------------------------------------------

def _remap_single_cut(make_net, cut_end) -> tuple[float, dict]:
    """Cut one cable on a fully mapped fabric and remap both ways.

    The timed quantity is the *seeded* remap — cycle N+1 reusing cycle N's
    map plus the delta journal — on a service built after the cut, as
    ``map_cycle`` builds one every cycle. Like a daemon's, that service
    reads the network's probe trie, which cycle N filled and the cut
    pruned. The from-scratch arm maps a copy of the cut network, so its
    trie starts empty: exactly what every remap cost before seeding
    existed, and the recorded ratios are against the honest
    pre-incremental baseline.

    Probe counts are deterministic, so the >=10x acceptance ratio is
    asserted here (a gate that cannot flake on runner noise); wall-clock
    ratios are recorded in the extras for the committed baseline rather
    than asserted per-run.
    """
    from repro.core.mapper import MapSeed
    from repro.core.mapper_protocol import create_mapper
    from repro.simulator.faults import FaultModel
    from repro.simulator.quiescent import QuiescentProbeService
    from repro.topology.analysis import recommended_search_depth
    from repro.topology.isomorphism import match_networks

    net = make_net()
    h0 = sorted(net.hosts)[0]
    depth = recommended_search_depth(net, h0)
    before = QuiescentProbeService(net=net, mapper=h0, faults=FaultModel())
    epoch = net.topology_epoch
    # BENCH_remap.json's probe counts are the host-probe-first order's.
    prior = create_mapper("berkeley", before, search_depth=depth, host_first=True).map()

    net.disconnect(net.wire_at(*cut_end))
    delta = net.affected_since(epoch)
    assert delta is not None and not delta.added

    cold = QuiescentProbeService(net=net.copy(), mapper=h0, faults=FaultModel())
    start = time.perf_counter()
    scratch = create_mapper("berkeley", cold, search_depth=depth, host_first=True).map()
    scratch_s = time.perf_counter() - start
    scratch_probes = scratch.stats.total_probes

    after = QuiescentProbeService(net=net, mapper=h0, faults=FaultModel())
    seeded_mapper = create_mapper("berkeley", after, search_depth=depth, host_first=True)
    seeded_mapper.seed_with(
        MapSeed(
            network=prior.network,
            witnesses=prior.witnesses,
            affected=delta.removed,
            entries=prior.entry_ports,
        )
    )
    start = time.perf_counter()
    seeded = seeded_mapper.map()
    seconds = time.perf_counter() - start
    probes = after.stats.total_probes

    assert seeded.seeded, seeded.seed_fallback
    assert match_networks(seeded.network, scratch.network)
    probe_ratio = scratch_probes / probes
    assert probe_ratio >= 10.0, (scratch_probes, probes)
    return seconds, {
        "probes": probes,
        "scratch_probes": scratch_probes,
        "probe_ratio": round(probe_ratio, 1),
        "scratch_ms": round(scratch_s * 1e3, 2),
        "wall_ratio": round(scratch_s / seconds, 1),
        "subtrees_kept": seeded.kept_nodes,
    }


def _remap_now() -> tuple[float, dict]:
    from repro.topology.generators import build_full_now

    # A peripheral redundant trunk: the network stays connected and the
    # dirty region is just the two endpoint switches.
    return _remap_single_cut(build_full_now, ("A-l2-1", 2))


def _remap_fattree8() -> tuple[float, dict]:
    from repro.topology.generators import build_three_tier_fat_tree

    return _remap_single_cut(
        lambda: build_three_tier_fat_tree(8), ("clos-core-0", 1)
    )


def _remap_now_routes() -> tuple[float, dict]:
    """The route half of a recovery cycle after the NOW cut above:
    ``route_cycle``, ``routes_deadlock_free`` and ``distribute_incremental``
    on the seeded map, as the daemon runs them, through a route memo
    holding the pre-cut generation (the timed quantity), against the same
    half with no memo. The two generations
    must be byte-identical and the two distribution reports equal, a gate
    that cannot flake; the cells the patch recompiled and the wall ratio
    are recorded.
    """
    from repro.core.mapper import MapSeed
    from repro.core.remapper import map_cycle, route_cycle
    from repro.routing.compile_routes import RouteMemo
    from repro.routing.deadlock import routes_deadlock_free
    from repro.routing.incremental import distribute_incremental
    from repro.service.serialize import route_tables_to_dict
    from repro.topology.generators import build_full_now

    net = build_full_now()
    h0 = sorted(net.hosts)[0]
    prior, _ = map_cycle(net, h0)
    epoch = net.topology_epoch
    net.disconnect(net.wire_at("A-l2-1", 2))
    seed = MapSeed.from_result(prior, net.affected_since(epoch).removed)
    after, _ = map_cycle(net, h0, seed=seed)
    assert after.seeded, after.seed_fallback
    memo = RouteMemo()
    old = route_cycle(prior.network, routes=memo)
    memo.commit(old)
    distribute_incremental(prior.network, h0, old, None)  # the cycle before

    def route_half(routes: RouteMemo | None):
        gc.collect()  # neither arm pays for the mapping's garbage
        start = time.perf_counter()
        tables = route_cycle(after.network, routes=routes)
        safe = routes_deadlock_free(tables)
        report = distribute_incremental(after.network, h0, tables, old)
        return time.perf_counter() - start, tables, safe, report

    full_s, full, full_safe, full_report = route_half(None)
    seconds, patched, safe, report = route_half(memo)
    assert route_tables_to_dict(patched) == route_tables_to_dict(full)
    assert safe and full_safe and report == full_report and report.ok
    memo.commit(patched)
    assert memo.fallback is None, memo.fallback
    return seconds, {
        "cells_run": memo.cells_run,
        "chains": len(patched.chains),
        "full_ms": round(full_s * 1e3, 2),
        "wall_ratio": round(full_s / seconds, 1),
    }


REMAP_SUITE: dict[str, Bench] = {
    "remap_single_cut_full_now": _remap_now,
    "remap_single_cut_fattree8": _remap_fattree8,
    "remap_single_cut_now_routes": _remap_now_routes,
}

#: Every suite by name: ``BENCH_<name>.json`` is its committed baseline.
SUITES: dict[str, dict[str, Bench]] = {
    "micro": MICRO_SUITE,
    "scale": SCALE_SUITE,
    "remap": REMAP_SUITE,
}

#: Benchmarks skipped by --quick (the CI smoke job): too slow for a gate.
SLOW_BENCHES = frozenset({"fat_tree_map_3tier_k16", "fat_tree_map_3tier_k30"})

#: Benchmarks so heavy they record a single sample with no warm-up run.
#: The baseline stores the honest one-shot number ("repeats": 1).
ONE_SHOT_BENCHES = frozenset({"fat_tree_map_3tier_k30"})


# ---------------------------------------------------------------------------
# runner / JSON / gating
# ---------------------------------------------------------------------------

def run_suite(
    suite: dict[str, Bench], *, repeats: int, quick: bool
) -> dict:
    results: dict[str, dict] = {}
    for name, bench in suite.items():
        if quick and name in SLOW_BENCHES:
            print(f"  {name}: skipped (--quick)")
            continue
        n = 1 if name in ONE_SHOT_BENCHES else repeats
        if name not in ONE_SHOT_BENCHES:
            # One untimed warm-up run per bench: the first call in a process
            # pays one-time import and cache-construction costs that would
            # otherwise dominate the median at low repeat counts (--quick
            # runs only 2 samples).
            bench()
        samples: list[float] = []
        extra: dict = {}
        for _ in range(n):
            seconds, extra = bench()
            samples.append(seconds)
        median_us = statistics.median(samples) * 1e6
        results[name] = {
            "median_us": round(median_us, 2),
            "min_us": round(min(samples) * 1e6, 2),
            "repeats": n,
            **({"extra": extra} if extra else {}),
        }
        print(f"  {name}: median {median_us / 1000:.2f} ms"
              + (f"  {extra}" if extra else ""))
    return {"schema": SCHEMA_VERSION, "benchmarks": results}


def find_regressions(
    baseline: dict, current: dict, tolerance: float
) -> list[str]:
    """Benchmarks whose median exceeds the baseline by more than tolerance.

    Only names present in both documents are compared, so adding or
    retiring a benchmark never trips the gate by itself.
    """
    problems: list[str] = []
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})
    for name in sorted(set(base_benches) & set(cur_benches)):
        base = base_benches[name].get("median_us")
        cur = cur_benches[name].get("median_us")
        if not base or cur is None:
            continue
        ratio = cur / base
        if ratio > 1.0 + tolerance:
            problems.append(
                f"{name}: {cur:.1f}us vs baseline {base:.1f}us "
                f"({ratio - 1.0:+.0%}, tolerance {tolerance:.0%})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=[*SUITES, "all"], default="micro")
    parser.add_argument("--repeats", type=int, default=5,
                        help="samples per benchmark (median is recorded)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats, skip the slowest benchmarks")
    parser.add_argument("--out", type=Path, default=BENCH_DIR,
                        help="directory for BENCH_<suite>.json results")
    parser.add_argument("--check-against", type=Path, default=None,
                        help="baseline JSON to gate regressions against")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed median slowdown vs baseline (0.20 = 20%%)")
    parser.add_argument("--input", type=Path, default=None,
                        help="compare this pre-recorded result JSON instead "
                             "of running (requires --check-against)")
    args = parser.parse_args(argv)

    # Read the baseline up front: with the default --out the result file
    # and the baseline can be the same path, and the gate must compare
    # against the committed numbers, not the ones just written.
    baseline = (
        json.loads(args.check_against.read_text())
        if args.check_against is not None
        else None
    )

    if args.input is not None:
        if args.check_against is None:
            parser.error("--input only makes sense with --check-against")
        docs = {"input": json.loads(args.input.read_text())}
    else:
        repeats = max(1, args.repeats // 2) if args.quick else args.repeats
        suites = (
            SUITES if args.suite == "all" else {args.suite: SUITES[args.suite]}
        )
        docs = {}
        # Before the first arm: a missing --out must not cost a whole run.
        args.out.mkdir(parents=True, exist_ok=True)
        for suite_name, suite in suites.items():
            print(f"suite {suite_name} (repeats={repeats}"
                  + (", quick" if args.quick else "") + "):")
            doc = run_suite(suite, repeats=repeats, quick=args.quick)
            docs[suite_name] = doc
            # Quick and gated runs write alongside the baseline, never over
            # it: a quick run skips tiers and repeats the baseline keeps.
            stem = f"BENCH_{suite_name}" + (
                ".current" if args.quick or args.check_against is not None else ""
            )
            out_path = args.out / f"{stem}.json"
            out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"wrote {out_path}")

    if baseline is not None:
        failures: list[str] = []
        for doc in docs.values():
            failures += find_regressions(baseline, doc, args.tolerance)
        if failures:
            print("REGRESSIONS:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"no regressions beyond {args.tolerance:.0%} vs "
              f"{args.check_against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
