"""Differential suite: compiling per destination *switch* numbers the same
generation as compiling per destination host.

``tests/routing/reference_compile.py`` is the compiler as it was before the
hosts on one switch shared one in-tree: one ``RoutingPaths.in_tree`` read
and one compiled in-tree per destination host, and a per-host pass over
its entry switch's whole row. Against it, for both compile seeds, every
case requires equal channels, tail rows, tails (by value), head channels,
owned tails (the routes over parallel cables, compiled on their own) and
per-host numbering, the key order of ``heads``, ``owned`` and every
``numbered`` row included:

- every fabric of ``tests/goldens/route_tables_digest.json``;
- the mapped full NOW after cumulative cuts of seeded non-bridge trunk
  cables (the rule of ``CutPlanner`` in ``benchmarks/e2e/workloads.py``);
- hypothesis draws with several hosts per switch, single-host switches,
  extra hosts on the mapper's switch, parallel trunk cables, cuts that
  leave destinations unreachable, and the mapped image of the fabric.

The work is pinned with monkeypatched counters: on the mapped full NOW
the compile reads 24 in-trees instead of 100 and compiles at most 1 000
hops instead of 3 662; where every switch carries one host there is
nothing to share, and both counts equal the reference's.

Seven hand-made mutants of the compiler each fail this module: a host on
a shared switch routing to itself (numbering its own tail in its own
pass), a later host numbering the
first host's tail before its own head channel, the swapped tail's last
turn read off the wrong channel, a row with parallel cables copied as if
shared, the chain's memoised row taken with the first host's channel in
it, every host on a switch given the first host's tail, and a copied row
that keeps the host itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.core.remapper import map_cycle
from repro.routing import compile_routes
from repro.routing.compile_routes import RouteGeneration, compile_route_tables
from repro.routing.paths import RoutingPaths, all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.topology.analysis import bridges
from repro.topology.generators import (
    build_full_now,
    build_ring,
    build_three_tier_fat_tree,
    random_san,
)
from repro.topology.model import Network, TopologyError
from tests.routing.reference_compile import reference_compile_route_tables
from tests.routing.reference_views import rows, tails
from tests.routing.test_route_tables_golden import COMPILE_SEEDS, FABRICS
from tests.topology.test_analysis_reference import cut_switch_wires


def numbered_parts(generation: RouteGeneration) -> tuple:
    """Everything a generation says by number, tails by value, in order."""
    table = next(iter(generation.values()), None)
    owned = table.routes._parts[3] if table is not None else {}
    return (
        generation.channels,
        rows(generation),
        tails(generation),
        list(generation.heads.items()),
        list(owned.items()),
        [(host, list(by_dst.items())) for host, by_dst in generation.numbered.items()],
    )


def assert_same_generation(net: Network) -> None:
    paths = all_pairs_updown_paths(net, orient_updown(net))
    for seed in COMPILE_SEEDS:
        got = compile_route_tables(net, paths, seed=seed)
        want = reference_compile_route_tables(net, paths, seed=seed)
        assert numbered_parts(got) == numbered_parts(want), seed


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_the_golden_fabrics(name):
    assert_same_generation(FABRICS[name]())


def cut_full_nows(seed: int, stops: tuple[int, ...]):
    """The mapped full NOW after each of ``stops`` cumulative cuts of
    seeded switch-to-switch cables, never a bridge (so the fabric stays
    connected), mapped from its first host."""
    net = build_full_now()
    h0 = sorted(net.hosts)[0]
    trunk = sorted(
        (
            w
            for w in net.wires
            if net.is_switch(w.a.node) and net.is_switch(w.b.node) and w.a.node != w.b.node
        ),
        key=lambda w: w.key,
    )
    random.Random(seed).shuffle(trunk)
    cuts = 0
    for wire in trunk:
        if wire.key in {b.key for b in bridges(net)}:
            continue
        net.disconnect(wire)
        cuts += 1
        if cuts in stops:
            yield map_cycle(net, h0)[0].network
        if cuts == max(stops):
            return


@pytest.mark.parametrize("seed", [1, 2])
def test_the_mapped_full_now_after_cuts(seed):
    maps = list(cut_full_nows(seed, (1, 4, 8)))
    assert len(maps) == 3
    for mapped in maps:
        assert mapped.n_hosts == 100
        assert_same_generation(mapped)


def crowded(net: Network, extra: int) -> Network:
    """Up to ``extra`` more hosts on the first host's switch (named to sort
    after every generated host, so the first host stays the mapper)."""
    switch = net.host_attachment(sorted(net.hosts)[0]).node
    for i, port in enumerate(net.free_ports(switch)[:extra]):
        net.connect(net.add_host(f"x-h{i}"), 0, switch, port)
    return net


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_switches=st.integers(min_value=1, max_value=6),
    n_hosts=st.integers(min_value=2, max_value=14),
    extra_links=st.integers(min_value=0, max_value=4),
    parallel=st.sampled_from([0.0, 0.5]),
    extra_hosts=st.integers(min_value=0, max_value=3),
    n_cuts=st.integers(min_value=0, max_value=5),
    mapped=st.booleans(),
)
def test_drawn_fabrics(
    seed, n_switches, n_hosts, extra_links, parallel, extra_hosts, n_cuts, mapped
):
    try:
        net = random_san(
            n_switches=n_switches,
            n_hosts=n_hosts,
            extra_links=extra_links,
            parallel_link_prob=parallel,
            seed=seed,
        )
    except TopologyError:
        reject()  # density does not fit the radix
    net = cut_switch_wires(crowded(net, extra_hosts), seed, n_cuts)
    if mapped:
        net = map_cycle(net, sorted(net.hosts)[0])[0].network
    try:
        orient_updown(net)
    except ValueError:
        reject()  # the mapper host alone behind a cut: nothing to route
    assert_same_generation(net)


def work(compile_fn, net: Network, monkeypatch) -> tuple[int, int]:
    """``(_hop calls, in_tree reads)`` of one compile of ``net``."""
    paths = all_pairs_updown_paths(net, orient_updown(net))
    hops, reads = [], []
    hop, in_tree = compile_routes._hop, RoutingPaths.in_tree

    def counted_hop(*args):
        hops.append(args[:2])
        return hop(*args)

    def counted_in_tree(self, dst):
        reads.append(dst)
        return in_tree(self, dst)

    with monkeypatch.context() as patch:
        patch.setattr(compile_routes, "_hop", counted_hop)
        patch.setattr(RoutingPaths, "in_tree", counted_in_tree)
        compile_fn(net, paths)
    return len(hops), len(reads)


def test_the_mapped_full_now_pays_per_switch(monkeypatch):
    net = FABRICS["now-full-mapped"]()
    assert len(set(all_pairs_updown_paths(net, orient_updown(net)).leaf_switch.values())) == 24
    assert work(reference_compile_route_tables, net, monkeypatch) == (3662, 100)
    hops, reads = work(compile_route_tables, net, monkeypatch)
    assert reads == 24
    assert hops <= 1000


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_three_tier_fat_tree(4, hosts_per_edge=1),
        lambda: build_ring(5, hosts_per_switch=1),
    ],
    ids=["fat-tree-3tier-k4-one-host-per-edge", "ring-5-one-host-per-switch"],
)
def test_one_host_per_switch_costs_what_it_did(build, monkeypatch):
    net = build()
    want = work(reference_compile_route_tables, net, monkeypatch)
    assert want[1] == net.n_hosts
    assert work(compile_route_tables, net, monkeypatch) == want
