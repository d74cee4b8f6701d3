"""A route generation is numbered once, by the compiler, and read by
number from there to the reader.

- Value: on every fabric of ``tests/goldens/route_tables_digest.json``
  (both compile seeds) and on hypothesis draws with parallel and loopback
  cables, cuts, a host–host island, an unattached host and a host lifted
  above its switch (so compiled pair by pair), every
  ``tables[src].routes[dst]`` equals — and hashes as — the route the
  parent compiler built (``reference_paths.reference_route_tables``).
- Numbering: the generation's channels, tail rows and per-route ``(head,
  tail)`` are the first-seen numbering of the pre-tail-table oracle
  (``tests/service/reference_codec.channel_table``) over the same routes
  in (host, destination) order; numbering a plain-dict copy by hand
  (``as_generation``) gives the same numbers.
- Pickle: a generation round-trips to an equal generation with equal
  numbers.
- One numbering per generation: a ``route_cycle`` plus the encode, the
  decode and the Dally–Seitz check of the decoded generation never number
  a route set by hand.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.core.remapper import route_cycle
from repro.routing import compile_routes
from repro.routing.compile_routes import (
    RouteGeneration,
    as_generation,
    compile_route_tables,
)
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import route_tables_from_dict, route_tables_to_dict
from repro.topology.model import Network, TopologyError
from tests.routing.reference_paths import (
    reference_all_pairs_updown_paths,
    reference_route_tables,
)
from tests.routing.reference_views import outs, rows, tails
from tests.routing.test_paths_reference import decorated
from tests.routing.test_route_tables_golden import COMPILE_SEEDS, FABRICS
from tests.service import reference_codec
from tests.topology.test_analysis_reference import cut_switch_wires, seeded_fabric


def numbers(generation: RouteGeneration) -> tuple:
    """Everything a generation says by number, tails by value."""
    return (
        generation.channels,
        rows(generation),
        tails(generation),
        outs(generation),
        generation.heads,
        generation.numbered,
    )


def assert_equals_reference(net: Network, orientation, seed: int) -> None:
    got = compile_route_tables(net, all_pairs_updown_paths(net, orientation), seed=seed)
    want = reference_route_tables(
        net, reference_all_pairs_updown_paths(net, orientation), seed=seed
    )
    assert isinstance(got, RouteGeneration)
    assert list(got) == list(want)
    routes = []
    for host, table in got.items():
        assert table.host == host
        assert list(table.routes) == list(want[host].routes)
        for dst, expected in want[host].routes.items():
            route = table.routes[dst]
            assert route == expected and hash(route) == hash(expected), (host, dst)
            routes.append(route)
    got_rows = rows(got)
    channels, want_rows = reference_codec.channel_table(routes)
    assert got.channels == channels
    assert [
        [got.heads[host], *got_rows[tail]]
        for host, routes_of in got.numbered.items()
        for tail in routes_of.values()
    ] == want_rows
    assert numbers(as_generation(dict(got))) == numbers(got)


@pytest.mark.parametrize(
    "name, seed",
    [
        pytest.param(name, seed, id=f"{name}-seed{seed}")
        for name in sorted(FABRICS)
        for seed in COMPILE_SEEDS
    ],
)
def test_the_golden_fabrics(name, seed):
    net = FABRICS[name]()
    assert_equals_reference(net, orient_updown(net), seed)


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
    assert_equals_reference(net, orientation, compile_seed)


@pytest.mark.parametrize("name", ["now-c", "parallel-cables", "host-host-island"])
def test_pickle_round_trip(name):
    net = FABRICS[name]()
    tables = compile_route_tables(net, all_pairs_updown_paths(net, orient_updown(net)))
    back = pickle.loads(pickle.dumps(tables))
    assert type(back) is RouteGeneration
    assert back == tables
    assert numbers(back) == numbers(tables)


def test_one_numbering_per_generation(monkeypatch):
    """The compiler numbers; the deadlock check, the encoder, the decoder
    and the server's check of what it decoded all read those numbers. A
    route set is numbered route by route (``channel_table``,
    ``as_generation``) only when a caller hands over something that is not
    a generation."""
    by_hand = []
    route = compile_routes._Numbering.route

    def counted(numbering, compiled):
        by_hand.append(compiled)
        return route(numbering, compiled)

    monkeypatch.setattr(compile_routes._Numbering, "route", counted)
    tables = route_cycle(FABRICS["fat-tree-3tier-k4-mapped"]())
    decoded = route_tables_from_dict(json.loads(json.dumps(route_tables_to_dict(tables))))
    assert routes_deadlock_free(tables) and routes_deadlock_free(decoded)
    assert by_hand == []
    routes = len(tables) * (len(tables) - 1)
    assert routes_deadlock_free(dict(decoded))  # a plain dict: numbered by hand
    assert len(by_hand) == routes
    assert route_tables_to_dict(dict(decoded)) == route_tables_to_dict(decoded)
    assert len(by_hand) == 2 * routes
