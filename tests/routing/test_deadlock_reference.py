"""Differential suite: the numbered-channel Dally–Seitz check gives the
networkx reference's verdict, on safe and on unsafe route sets.

UP*/DOWN* tables are safe by theorem, so alone they would only ever
exercise the "no cycle" answer; unrestricted shortest paths on ring, torus
and hypercube, and seeded subsets of random simple-path routes on random
fabrics — which land on both sides — supply the cyclic half.
Every witness is checked arc by arc against the reference graph, and a
value-equal copy that shares no ``Traversal`` with the original (a v2 JSON
round trip, or each channel rebuilt by hand) must number, judge and witness
exactly as the interned set does.
"""

from __future__ import annotations

import json
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.compile_routes import (
    CompiledRoute,
    RouteTable,
    build_wire_index,
    compile_route_tables,
    path_to_turns,
)
from repro.routing.deadlock import dependency_cycle, routes_deadlock_free
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import route_tables_from_dict, route_tables_to_dict
from repro.simulator.path_eval import Traversal
from repro.topology.generators import build_hypercube, build_ring, build_torus
from repro.topology.model import Network, PortRef, TopologyError
from tests.routing.reference_deadlock import (
    channel_dependency_graph,
    flat_route,
    reference_deadlock_free,
)
from tests.topology.test_analysis_reference import seeded_fabric

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def updown_tables(net: Network, seed: int = 0) -> dict[str, RouteTable]:
    orientation = orient_updown(net)
    paths = all_pairs_updown_paths(net, orientation)
    return compile_route_tables(net, paths, seed=seed)


def shortest_path_tables(net: Network, seed: int = 0) -> dict[str, RouteTable]:
    """Unrestricted shortest paths for every connected host pair — what a
    fabric would route without the up/down turn restriction."""
    rng = random.Random(seed)
    wire_index = build_wire_index(net)
    tables = {h: RouteTable(h) for h in sorted(net.hosts)}
    for src, reach in nx.all_pairs_shortest_path(nx.Graph(net.to_networkx())):
        if src not in tables:
            continue
        for dst in sorted(reach):
            if dst != src and dst in tables:
                tables[src].routes[dst] = path_to_turns(
                    net, reach[dst], rng=rng, wire_index=wire_index
                )
    return tables


def wandering_routes(net: Network, seed: int) -> list[CompiledRoute]:
    """One seeded random simple path per connected host pair: legal source
    routes under no restriction at all, cyclic on about half the fabrics
    that have a switch cycle."""
    rng = random.Random(seed)
    g = nx.Graph(net.to_networkx())
    wire_index = build_wire_index(net)
    hosts = sorted(net.hosts)
    return [
        path_to_turns(
            net,
            rng.choice(list(nx.all_simple_paths(g, src, dst))),
            rng=rng,
            wire_index=wire_index,
        )
        for src in hosts
        for dst in hosts
        if src != dst and nx.has_path(g, src, dst)
    ]


def flat(tables: dict[str, RouteTable]) -> list[CompiledRoute]:
    return [r for t in tables.values() for r in t.routes.values()]


def rebuilt(routes: list[CompiledRoute]) -> list[CompiledRoute]:
    """Equal routes in which no two hops share a ``Traversal`` object."""
    return [
        flat_route(
            route.src,
            route.dst,
            route.turns,
            tuple(
                Traversal(
                    PortRef(t.src.node, t.src.port), PortRef(t.dst.node, t.dst.port)
                )
                for t in route.traversals
            ),
        )
        for route in routes
    ]


def assert_agrees_with_reference(routes: list[CompiledRoute]) -> bool:
    """Same verdict as the oracle; any witness is a closed chain of arcs
    the oracle graph has. Returns the verdict."""
    oracle = channel_dependency_graph(routes)
    safe = reference_deadlock_free(routes)
    cycle = dependency_cycle(routes)
    assert routes_deadlock_free(routes) == safe == (cycle is None)
    if cycle is not None:
        assert len(set(cycle)) == len(cycle) >= 1
        for held, wanted in zip(cycle, cycle[1:] + cycle[:1]):
            assert oracle.has_edge(held, wanted), (held, wanted)
    return safe


def assert_copies_judge_alike(tables: dict[str, RouteTable]) -> None:
    routes = flat(tables)
    witness = dependency_cycle(tables)
    assert dependency_cycle(routes) == witness
    assert dependency_cycle(iter(routes)) == witness
    assert dependency_cycle(rebuilt(routes)) == witness
    decoded = route_tables_from_dict(json.loads(json.dumps(route_tables_to_dict(tables))))
    assert dependency_cycle(decoded) == witness


def _fabric(seed, n_switches, n_hosts, extra_links, loopbacks):
    try:
        return seeded_fabric(seed, n_switches, n_hosts, extra_links, 0, loopbacks)
    except TopologyError:
        return None  # density does not fit the radix


fabric_params = dict(
    seed=st.integers(min_value=0, max_value=10**6),
    n_switches=st.integers(min_value=1, max_value=7),
    n_hosts=st.integers(min_value=2, max_value=6),
    extra_links=st.integers(min_value=0, max_value=4),
    loopbacks=st.integers(min_value=0, max_value=2),
)


class TestRandomFabrics:
    """Parallel cables (``parallel_link_prob`` 0.5) and loopback cables."""

    @settings(**_SETTINGS)
    @given(compile_seed=st.integers(min_value=0, max_value=50), **fabric_params)
    def test_updown_tables_are_safe_for_both(self, compile_seed, **params):
        net = _fabric(**params)
        if net is None:
            return
        tables = updown_tables(net, compile_seed)
        assert assert_agrees_with_reference(flat(tables)) is True
        assert_copies_judge_alike(tables)

    @settings(**_SETTINGS)
    @given(
        keep=st.floats(min_value=0.3, max_value=1.0),
        pick=st.integers(min_value=0, max_value=10**6),
        **fabric_params,
    )
    def test_unrestricted_route_subsets_get_the_reference_verdict(
        self, keep, pick, **params
    ):
        net = _fabric(**params)
        if net is None:
            return
        rng = random.Random(pick)
        subset = [r for r in wandering_routes(net, pick) if rng.random() < keep]
        assert_agrees_with_reference(subset)
        assert dependency_cycle(rebuilt(subset)) == dependency_cycle(subset)

    def test_the_unrestricted_arm_lands_on_both_verdicts(self):
        """The arm above is only a differential test if its inputs are
        sometimes cyclic: a fixed sweep of the same generator says so."""
        verdicts = []
        for seed in range(12):
            net = _fabric(seed, 6, 5, 4, 1)
            if net is not None:
                verdicts.append(
                    assert_agrees_with_reference(wandering_routes(net, seed))
                )
        assert 3 <= sum(verdicts) <= len(verdicts) - 3, verdicts


class TestRegularFabrics:
    """The motivating contrast: cyclic fabrics, no turn restriction."""

    @pytest.mark.parametrize(
        "net_builder, unrestricted_is_safe",
        [
            (lambda: build_ring(5, hosts_per_switch=1), False),
            (lambda: build_ring(8, hosts_per_switch=2), False),
            # Breadth-first shortest paths happen to cross a small torus or
            # a hypercube in dimension order, which is safe; the oracle
            # decides, this only records what it says.
            (lambda: build_torus(3, 3, hosts_per_switch=1), True),
            (lambda: build_torus(4, 4, hosts_per_switch=1), True),
            (lambda: build_hypercube(3, hosts_per_switch=1), True),
            (lambda: build_hypercube(4, hosts_per_switch=1), True),
        ],
    )
    def test_unrestricted_and_updown_routes(self, net_builder, unrestricted_is_safe):
        net = net_builder()
        unrestricted = shortest_path_tables(net)
        assert assert_agrees_with_reference(flat(unrestricted)) is unrestricted_is_safe
        assert_copies_judge_alike(unrestricted)
        restricted = updown_tables(net)
        assert assert_agrees_with_reference(flat(restricted)) is True
        assert_copies_judge_alike(restricted)

    def test_a_channel_depending_on_itself_is_a_cycle(self):
        loop = Traversal(PortRef("s0", 1), PortRef("s0", 2))
        route = flat_route("h0", "h1", turns=(), traversals=(loop, loop))
        assert assert_agrees_with_reference([route]) is False
        assert dependency_cycle([route]) == [(loop.src, loop.dst)]
