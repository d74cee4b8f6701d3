"""Differential suite: one tail table per generation changes how routes
are held, numbered, checked and written down — never which routes.

The oracle is ``reference_codec.py``: the per-route ``channel_table``, the
version-2 encoder / decoder and the per-route successor sets, verbatim
from the commit before a route became head channel + shared tail, and the
version-3 encoder / decoder, verbatim from the commit before the document
dropped its turns. Over
every fabric of ``tests/goldens/route_tables_digest.json`` (the full NOW
in its mapped form only; both compile seeds where the seed matters), hand-made fabrics for what the compiler cannot share (parallel
cables, a host–host island, a host that is not a leaf) and hypothesis
draws of ``seeded_fabric`` with cuts and those decorations:

- tables decoded from the version-4 document ``==`` tables decoded from
  the version-3 document ``==`` tables decoded from the version-2
  document ``==`` the compiled tables (route by route, in table and route
  order), for the whole generation;
- the decoded version-4 generation's ``channels``, ``chains``, ``pairs``,
  ``heads`` and ``numbered`` are the compiled generation's, key order
  included, with one ``int`` object per tail number;
- ``channel_table`` numbers channels in the reference's first-seen order
  and every route's ``[head, *tail]`` row is the reference's flat row;
- the dependency graph has the reference's arcs, channel by channel; up
  to 1 000 routes the verdict is also the networkx oracle's and a witness
  is valid arc by arc (``test_deadlock_reference``'s
  ``assert_agrees_with_reference``) — also for unrestricted, cyclic route
  sets where nothing is shared.
"""

from __future__ import annotations

import gc
import json
import pickle
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.routing.compile_routes import (
    CompiledRoute,
    RouteTable,
    as_generation,
    channel_table,
    compile_route_tables,
)
from repro.routing.deadlock import _successors, dependency_cycle
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import (
    route_tables_from_dict,
    route_tables_to_dict,
)
from repro.topology.model import Network, TopologyError
from tests.routing.test_deadlock_reference import (
    assert_agrees_with_reference,
    wandering_routes,
)
from tests.routing.test_paths_reference import decorated, utility_host
from tests.routing.test_route_tables_golden import (
    COMPILE_SEEDS,
    FABRICS,
    SEED_SENSITIVE,
)
from tests.service import reference_codec
from tests.topology.test_analysis_reference import cut_switch_wires, seeded_fabric


def _wire(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def _flat(tables: dict[str, RouteTable]) -> list[CompiledRoute]:
    return [r for table in tables.values() for r in table.routes.values()]


def assert_same_route_for_route(got, want) -> None:
    assert list(got) == list(want)
    for host, table in got.items():
        assert table.host == want[host].host == host
        assert list(table.routes.items()) == list(want[host].routes.items()), host


def assert_same_numbering(got, want) -> None:
    """The five numbered fields, equal and in the same order."""
    assert got.channels == want.channels
    assert got.chains == want.chains
    assert got.pairs == want.pairs
    assert list(got.heads.items()) == list(want.heads.items())
    assert [(h, list(d.items())) for h, d in got.numbered.items()] == [
        (h, list(d.items())) for h, d in want.numbered.items()
    ]


def assert_codecs_agree(tables: dict[str, RouteTable]) -> None:
    """v4 round trip == v3 round trip == v2 round trip == ``tables``; the
    decoded v4 generation is numbered as the compiled one, holds one
    ``int`` per tail number, re-encodes to the same bytes and shares one
    object per tail."""
    doc = route_tables_to_dict(tables)
    new = route_tables_from_dict(_wire(doc))
    v3 = reference_codec.route_tables_from_dict_v3(
        _wire(reference_codec.route_tables_to_dict_v3(tables))
    )
    old = reference_codec.route_tables_from_dict(
        _wire(reference_codec.route_tables_to_dict(tables))
    )
    # Every codec writes tables and routes in sorted order.
    ordered = {
        host: RouteTable(host, dict(sorted(tables[host].routes.items())))
        for host in sorted(tables)
    }
    assert_same_route_for_route(new, v3)
    assert_same_route_for_route(v3, old)
    assert_same_route_for_route(new, ordered)
    assert_same_numbering(new, as_generation(tables))
    numbers = [n for routes in new.numbered.values() for n in routes.values()]
    assert len({id(n) for n in numbers}) == len(set(numbers))
    assert json.dumps(route_tables_to_dict(new)) == json.dumps(doc)
    routes = _flat(new)
    assert len({id(r.tail) for r in routes}) == len(doc["tails"]) <= len(routes)


def assert_same_numbering_and_arcs(routes: list[CompiledRoute]) -> None:
    channels, tails, numbered = channel_table(routes)
    want_channels, want_rows = reference_codec.channel_table(routes)
    assert channels == want_channels
    assert [[head, *tails[tail][0]] for head, tail in numbered] == want_rows
    assert _successors(routes) == reference_codec.reference_successors(routes)


def assert_equals_reference(tables: dict[str, RouteTable]) -> None:
    assert_codecs_agree(tables)
    routes = _flat(tables)
    assert_same_numbering_and_arcs(routes)
    assert dependency_cycle(routes) is None
    if len(routes) <= 1000:  # networkx takes 0.6 s over a full NOW's 9 900
        assert assert_agrees_with_reference(routes) is True


def _updown_tables(net: Network, seed: int, orientation=None):
    orientation = orientation or orient_updown(net)
    paths = all_pairs_updown_paths(net, orientation)
    return compile_route_tables(net, paths, seed=seed)


@pytest.mark.parametrize(
    "name, seed",
    [
        pytest.param(name, seed, id=f"{name}-seed{seed}")
        # the full NOW as a cycle routes it (mapped); the second compile
        # seed only where the goldens say it matters
        for name in sorted(set(FABRICS) - {"now-full"})
        for seed in (COMPILE_SEEDS if name in SEED_SENSITIVE else COMPILE_SEEDS[:1])
    ],
)
def test_the_golden_fabrics(name, seed):
    assert_equals_reference(_updown_tables(FABRICS[name](), seed))


def test_a_host_that_is_not_a_leaf():
    """Labelled above its switch a host is a core state, and the compiler
    goes pair by pair (``paths.node_paths``): every route owns its tail."""
    net = utility_host()
    orientation = orient_updown(net)
    level, tiebreak = orientation.labels["s2"]
    orientation.labels["h0"] = (level - 1, tiebreak)
    tables = _updown_tables(net, 0, orientation)
    routes = _flat(tables)
    assert len({id(r.tail) for r in routes}) == len(routes) > 0
    assert_equals_reference(tables)


def test_a_one_hop_route_has_the_empty_tail():
    tables = _updown_tables(FABRICS["host-host-island"](), 0)
    route = tables["h2"].routes["h3"]
    assert (route.first_turn, route.tail, route.turns, route.hops) == (None, ((), ()), (), 1)
    doc = route_tables_to_dict(tables)
    chain, last = doc["tails"][doc["tables"]["h2"]["routes"]["h3"]]
    assert (doc["chains"][chain], last) == ([], None)


def _retained_bytes(tables, encode, decode) -> int:
    """What a generation decoded from a pickled document keeps allocated
    once the document is gone: tracemalloc, from the unpickle on."""
    sent = pickle.dumps(encode(tables))
    gc.collect()
    tracemalloc.start()
    try:
        doc = pickle.loads(sent)
        decoded = decode(doc)
        del doc
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(decoded) == len(tables)
    return retained


def test_a_decoded_now_generation_retains_no_more_than_the_v3_decode():
    """Faster cycles keep more generations alive in the server's window:
    the version-4 decode of the mapped full NOW must not hold more bytes
    than the version-3 reference decode of the same generation did (one
    ``int`` per tail number in both, one ``Traversal`` per channel)."""
    tables = _updown_tables(FABRICS["now-full-mapped"](), 0)
    v4 = _retained_bytes(tables, route_tables_to_dict, route_tables_from_dict)
    v3 = _retained_bytes(
        tables,
        reference_codec.route_tables_to_dict_v3,
        reference_codec.route_tables_from_dict_v3,
    )
    assert 0 < v4 <= v3, (v4, v3)


def test_unrestricted_cyclic_routes_get_the_reference_arcs():
    """Nothing shared, and cyclic on some fabrics: the arm where a witness
    exists to be checked."""
    verdicts = []
    for seed in range(8):
        try:
            net = seeded_fabric(seed, 6, 5, 4, 0, 1)
        except TopologyError:
            continue
        routes = wandering_routes(net, seed)
        assert_same_numbering_and_arcs(routes)
        verdicts.append(assert_agrees_with_reference(routes))
    assert True in verdicts and False in verdicts


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    compile_seed=st.sampled_from(COMPILE_SEEDS),
    n_switches=st.integers(min_value=1, max_value=7),
    n_hosts=st.integers(min_value=2, max_value=6),
    extra_links=st.integers(min_value=0, max_value=4),
    pendants=st.integers(min_value=0, max_value=2),
    loopbacks=st.integers(min_value=0, max_value=2),
    n_cuts=st.integers(min_value=0, max_value=3),
    host_host=st.booleans(),
    unattached=st.booleans(),
    lift_a_host=st.booleans(),
)
def test_equals_reference_on_drawn_fabrics(
    seed,
    compile_seed,
    n_switches,
    n_hosts,
    extra_links,
    pendants,
    loopbacks,
    n_cuts,
    host_host,
    unattached,
    lift_a_host,
):
    try:
        net = seeded_fabric(seed, n_switches, n_hosts, extra_links, pendants, loopbacks)
    except TopologyError:
        reject()  # density does not fit the radix
    net = decorated(
        cut_switch_wires(net, seed, n_cuts), host_host=host_host, unattached=unattached
    )
    orientation = orient_updown(net)
    if lift_a_host:  # above its switch: not a leaf, so no in-tree compile
        host, switch = next(
            (h, net.host_attachment(h).node)
            for h in sorted(net.hosts)
            if net.host_attachment(h) and net.is_switch(net.host_attachment(h).node)
        )
        level, tiebreak = orientation.labels[switch]
        orientation.labels[host] = (level - 1, tiebreak)
    assert_equals_reference(_updown_tables(net, compile_seed, orientation))
