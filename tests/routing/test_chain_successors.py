"""Differential suite: the Dally–Seitz check over chains builds the graph
the check over tails built.

A generation holds each chain once and each tail as its chain plus its
last channel, and ``repro.routing.deadlock._successors`` reads the arcs
inside each chain once, one join arc per tail and the head arcs. The
oracle is ``reference_successors.py``, the parent's per-tail-row check
verbatim. Per channel the successor sets must be equal, and so must the
``dependency_cycle`` verdict, on compiled generations and on the
generations decoded from their version-3 documents:

- the parallel-cable fabric (routes compiled on their own), the host–host
  island (an empty tail), the unattached host and the mapped full NOW;
- hypothesis draws of ``seeded_fabric`` with parallel and loopback cables,
  cuts, a host–host island, an unattached host and a host lifted above
  its switch (compiled pair by pair), both compile seeds;
- hand-built unrestricted route sets, cyclic on some fabrics, as a bare
  route list and, where they have one, in their numbered form.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.routing.compile_routes import (
    RouteGeneration,
    RouteTable,
    as_generation,
    compile_route_tables,
)
from repro.routing.deadlock import _successors, dependency_cycle
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import route_tables_from_dict, route_tables_to_dict
from repro.topology.model import Network, TopologyError
from tests.routing.reference_successors import (
    reference_dependency_cycle,
    reference_successors,
)
from tests.routing.test_deadlock_reference import wandering_routes
from tests.routing.test_paths_reference import decorated
from tests.routing.test_route_tables_golden import COMPILE_SEEDS, FABRICS
from tests.topology.test_analysis_reference import cut_switch_wires, seeded_fabric


def decoded(generation: RouteGeneration) -> RouteGeneration:
    return route_tables_from_dict(json.loads(json.dumps(route_tables_to_dict(generation))))


def assert_same_graph(tables) -> bool:
    """Equal channels, successor sets and verdict; returns the verdict."""
    assert _successors(tables) == reference_successors(tables)
    safe = dependency_cycle(tables) is None
    assert safe == (reference_dependency_cycle(tables) is None)
    return safe


def assert_both_forms(generation: RouteGeneration) -> bool:
    safe = assert_same_graph(generation)
    assert assert_same_graph(decoded(generation)) == safe
    return safe


def compiled(net: Network, seed: int = 0, orientation=None) -> RouteGeneration:
    orientation = orientation or orient_updown(net)
    return compile_route_tables(net, all_pairs_updown_paths(net, orientation), seed=seed)


@pytest.mark.parametrize(
    "name", ["parallel-cables", "host-host-island", "unattached-host", "now-full-mapped"]
)
@pytest.mark.parametrize("seed", COMPILE_SEEDS)
def test_the_fabrics_the_compiler_cannot_share(name, seed):
    generation = compiled(FABRICS[name](), seed)
    assert generation.chains and len(generation.chains) <= len(generation.pairs)
    assert assert_both_forms(generation) is True


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    compile_seed=st.sampled_from(COMPILE_SEEDS),
    n_switches=st.integers(min_value=1, max_value=7),
    n_hosts=st.integers(min_value=2, max_value=6),
    extra_links=st.integers(min_value=0, max_value=4),
    loopbacks=st.integers(min_value=0, max_value=2),
    n_cuts=st.integers(min_value=0, max_value=3),
    host_host=st.booleans(),
    unattached=st.booleans(),
    lift_a_host=st.booleans(),
)
def test_drawn_fabrics(
    seed,
    compile_seed,
    n_switches,
    n_hosts,
    extra_links,
    loopbacks,
    n_cuts,
    host_host,
    unattached,
    lift_a_host,
):
    try:
        net = seeded_fabric(seed, n_switches, n_hosts, extra_links, 0, loopbacks)
    except TopologyError:
        reject()  # density does not fit the radix
    net = decorated(
        cut_switch_wires(net, seed, n_cuts), host_host=host_host, unattached=unattached
    )
    orientation = orient_updown(net)
    if lift_a_host:  # above its switch: not a leaf, so compiled pair by pair
        host, switch = next(
            (h, net.host_attachment(h).node)
            for h in sorted(net.hosts)
            if net.host_attachment(h) and net.is_switch(net.host_attachment(h).node)
        )
        level, tiebreak = orientation.labels[switch]
        orientation.labels[host] = (level - 1, tiebreak)
    assert assert_both_forms(compiled(net, compile_seed, orientation)) is True


def test_hand_built_cyclic_route_sets():
    verdicts = []
    for seed in range(8):
        try:
            net = seeded_fabric(seed, 6, 5, 4, 0, 1)
        except TopologyError:
            continue
        routes = wandering_routes(net, seed)
        safe = assert_same_graph(routes)
        tables: dict[str, RouteTable] = {}
        for route in routes:
            tables.setdefault(route.src, RouteTable(route.src, {})).routes[route.dst] = route
        assert assert_both_forms(as_generation(tables)) == safe
        verdicts.append(safe)
    assert True in verdicts and False in verdicts
