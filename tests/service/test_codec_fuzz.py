"""Structure-aware fuzz of the version-3 ``route-tables`` document.

The decoder runs on the server's event loop over whatever a worker sent
back, and the server turns exactly one exception — ``SerializationError``
— into ``bad-worker-outcome``. So for every mutant of a valid document the
decoder has two honest answers and no third:

- raise :class:`SerializationError`; or
- return tables in which every route *independently* re-derives: it sits
  under its own source and destination, its first channel leaves the
  source, its channels chain, its last channel enters the destination and
  every turn is the out port minus the in port where two channels meet.

Mutations know the document's structure (that is what reaches the checks
behind the first one): top-level and per-table fields dropped, retagged or
duplicated; every kind of index — a tail's channel numbers, a route's
head and tail — replaced by a bool, float, string, ``None``, list,
negative, out-of-range or merely *other* number; whole tails swapped,
spliced between destinations or cut short; turns perturbed, dropped or
made ``None``; channel ends renamed or re-ported; a route cut to a pair or
handed back in the version-2 shape.

Decoder mutants run by hand against this file (``pytest -x``; fourteen,
none survives), each with the check removed from ``serialize.py`` and the
shrunk draw that kills it — ``(mutator, at, slot, junk)`` on document
``which=0`` unless said:

- ``_route``: no ``type(head) is int`` — ``(route_index, 0, 0, 0.5)``,
  ``TypeError: list indices must be integers``;
- ``_route``: no range check on the tail index — ``(route_index, 0, 1,
  10**6)``, ``IndexError``;
- ``_route``: no ``len(doc) != 3`` — ``(cut_route, 0, 0, ·)``,
  ``ValueError: not enough values to unpack``;
- ``_tails``: non-``int`` channel numbers let through — ``(tail_channel,
  0, 0, 0.5)``, ``TypeError``;
- ``_route``: first turn not compared at the junction — ``(turn_first, 0,
  0, ·)`` (the turn plus one) decodes: "turns re-derive";
- ``_route``: tail entry not compared with where the head lands —
  ``(bend_channel, 2, 2, ·)`` renames the node a tail's first channel
  leaves: "channels chain";
- ``_route``: last node not compared with the destination — ``(cut_tail,
  1, 1, ·)`` stops a tail one switch short: "enters its destination";
- ``_route``: head not compared with the host — ``(foreign_route, 0, 0,
  ·)``, another host's honest route to the same destination: "leaves its
  source" (no single-value bend reaches it: the junction check fires
  first, which is why the mutator exists);
- ``_tails``: chain continuity dropped — ``(bend_channel, 224, 2, ·)``:
  "channels chain"; turn-vs-ports dropped — ``(tail_turn, 1, 1, ·)``:
  "turns re-derive"; turn count not compared with channel count —
  ``(tail_turn, 0, 0, 0.5)`` appends a turn: "turns re-derive";
- ``_route``: ``None`` first turn accepted over a non-empty tail —
  ``(turn_first, 0, 1, ·)``: no turns over two channels; a first turn
  accepted over an empty tail — ``which=1, (turn_first, 2, 0, ·)``;
- ``_route``: no ``type(turn) is int`` — ``(turn_first, 0, 662, ·)`` hands
  ``True`` where the turn is 1; it compares equal and would be adopted:
  "turns are ints".
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.compile_routes import RouteTable, compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import (
    SerializationError,
    route_tables_from_dict,
    route_tables_to_dict,
)
from tests.routing.test_route_tables_golden import FABRICS

#: What a number in the document may be replaced by; an ``int`` stays an
#: ``int`` (taken modulo nothing: negative and far out of range included).
JUNK = [True, False, 0.5, 1.0, "1", None, [0], {}, -1, -7, 10**6, 0, 1, 2, 3, 5, 8, 13]


def _document(name: str) -> dict:
    net = FABRICS[name]()
    orientation = orient_updown(net)
    paths = all_pairs_updown_paths(net, orientation)
    tables = compile_route_tables(net, paths, orientation=orientation, seed=0)
    return json.loads(json.dumps(route_tables_to_dict(tables)))


@pytest.fixture(scope="module")
def documents() -> list[dict]:
    """Small, and between them every shape: shared tails, owned tails over
    parallel cables, the empty tail of a host–host cable, an empty table."""
    return [
        _document(name)
        for name in ("parallel-cables", "host-host-island", "unattached-host", "random-10-seed3")
    ]


def _pick(items, at: int):
    items = list(items)
    return items[at % len(items)] if items else None


def _routes(doc: dict) -> list[tuple[dict, str]]:
    """Every ``(routes object, destination key)`` of the document, as far
    as earlier bends left one to find."""
    tables = doc.get("tables")
    return [
        (table["routes"], dst)
        for table in (tables.values() if isinstance(tables, dict) else ())
        if isinstance(table, dict) and isinstance(table.get("routes"), dict)
        for dst in table["routes"]
    ]


# -- mutators: (doc, at, slot, junk) -> None, never raising on a doc an
# earlier mutator already bent ------------------------------------------------
def drop_field(doc, at, slot, junk):
    doc.pop(_pick(sorted(doc), at), None)


def retag(doc, at, slot, junk):
    doc[_pick(["kind", "version"], at)] = _pick(
        ["route-table", "map-result", 2, 1, "3", None, junk], slot
    )


def retype_field(doc, at, slot, junk):
    doc[_pick(["channels", "tails", "tables"], at)] = _pick([junk, {}, [], "x", [junk]], slot)


def table_field(doc, at, slot, junk):
    table = _pick(doc["tables"].values(), at) if isinstance(doc.get("tables"), dict) else None
    if isinstance(table, dict):
        field = _pick(["kind", "version", "host", "routes"], slot)
        if junk is None:
            table.pop(field, None)
        else:
            table[field] = junk


def duplicate_table(doc, at, slot, junk):
    tables = doc.get("tables")
    if isinstance(tables, dict) and tables:
        tables[_pick(sorted(tables), slot)] = copy.deepcopy(_pick(tables.values(), at))
        tables[f"ghost-{at}"] = copy.deepcopy(_pick(tables.values(), at))


def duplicate_route(doc, at, slot, junk):
    routes = _routes(doc)
    if routes:
        (src, dst), (into, other) = _pick(routes, at), _pick(routes, slot)
        into[other] = copy.deepcopy(src[dst])


def duplicate_entry(doc, at, slot, junk):
    rows = doc.get(_pick(["channels", "tails"], slot))
    if isinstance(rows, list) and rows:
        rows.insert(at % (len(rows) + 1), copy.deepcopy(_pick(rows, at)))


def foreign_route(doc, at, slot, junk):
    """Another host's honest route to the same destination, under this
    host: valid everywhere but where it starts."""
    routes = _routes(doc)
    if routes:
        routes_of, dst = _pick(routes, at)
        donors = [r for r, d in routes if d == dst and r is not routes_of]
        if donors:
            routes_of[dst] = copy.deepcopy(_pick(donors, slot)[dst])


def route_index(doc, at, slot, junk):
    routes = _routes(doc)
    if routes:
        routes_of, dst = _pick(routes, at)
        if isinstance(routes_of[dst], list) and routes_of[dst]:
            routes_of[dst][slot % min(2, len(routes_of[dst]))] = junk


def cut_route(doc, at, slot, junk):
    routes = _routes(doc)
    if routes:
        routes_of, dst = _pick(routes, at)
        old = routes_of[dst]
        routes_of[dst] = _pick(
            [old[:2], [*old, junk], {"turns": [junk], "channels": old}, junk, []]
            if isinstance(old, list)
            else [junk],
            slot,
        )


def turn_first(doc, at, slot, junk):
    routes = _routes(doc)
    if routes:
        routes_of, dst = _pick(routes, at)
        route = routes_of[dst]
        if isinstance(route, list) and len(route) == 3:
            turn = route[2] if isinstance(route[2], int) else 0
            # one more, none at all, junk, and the same value in another type
            route[2] = _pick(
                [turn + 1, None, junk, float(turn), bool(turn) if turn in (0, 1) else -turn],
                slot,
            )


def _tail(doc, at):
    tails = doc.get("tails")
    tail = _pick(tails, at) if isinstance(tails, list) else None
    return tail if isinstance(tail, list) and len(tail) == 2 else None


def tail_channel(doc, at, slot, junk):
    tail = _tail(doc, at)
    if tail and isinstance(tail[0], list) and tail[0]:
        tail[0][slot % len(tail[0])] = junk


def tail_turn(doc, at, slot, junk):
    tail = _tail(doc, at)
    if tail and isinstance(tail[1], list):
        if tail[1] and slot % 3:
            here = slot % len(tail[1])
            old = tail[1][here]
            tail[1][here] = old + 1 if slot % 3 == 1 and isinstance(old, int) else junk
        else:
            tail[1].append(junk if isinstance(junk, int) else 0)


def cut_tail(doc, at, slot, junk):
    tail = _tail(doc, at)
    if tail and isinstance(tail[0], list) and tail[0]:
        end = slot % len(tail[0])
        tail[0] = tail[0][:end]
        if isinstance(tail[1], list):
            tail[1] = tail[1][: max(end - 1, 0)]


def splice_tails(doc, at, slot, junk):
    """Swap two tails where they stand: every route naming either now
    names a valid tail of some other (entry switch, destination)."""
    tails = doc.get("tails")
    if isinstance(tails, list) and len(tails) > 1:
        a, b = at % len(tails), slot % len(tails)
        tails[a], tails[b] = tails[b], tails[a]


def bend_channel(doc, at, slot, junk):
    channels = doc.get("channels")
    channel = _pick(channels, at) if isinstance(channels, list) else None
    if isinstance(channel, list) and len(channel) == 2:
        end = channel[slot % 2]
        if isinstance(end, list) and len(end) == 2:
            if slot % 4 < 2:
                end[1] = end[1] + 1 if isinstance(end[1], int) and junk is None else junk
            else:
                end[0] = _pick(["nowhere", junk, end[0] + "x" if isinstance(end[0], str) else 0], at)


MUTATORS = [
    drop_field,
    retag,
    retype_field,
    table_field,
    duplicate_table,
    duplicate_route,
    duplicate_entry,
    foreign_route,
    route_index,
    cut_route,
    turn_first,
    tail_channel,
    tail_turn,
    cut_tail,
    splice_tails,
    bend_channel,
]


def assert_every_route_rederives(tables: dict[str, RouteTable]) -> None:
    for host, table in tables.items():
        assert table.host == host
        for dst, route in table.routes.items():
            assert (route.src, route.dst) == (host, dst)
            channels = route.traversals
            assert channels[0].src.node == host, "leaves its source"
            assert channels[-1].dst.node == dst, "enters its destination"
            for held, wanted in zip(channels, channels[1:]):
                assert held.dst.node == wanted.src.node, "channels chain"
            assert route.turns == tuple(
                wanted.src.port - held.dst.port
                for held, wanted in zip(channels, channels[1:])
            ), "turns re-derive"
            assert route.hops == len(channels) == len(route.turns) + 1
            assert all(type(turn) is int for turn in route.turns), "turns are ints"


def test_the_unbent_documents_decode_and_rederive(documents):
    for doc in documents:
        tables = route_tables_from_dict(doc)
        assert sum(len(t.routes) for t in tables.values()) > 0
        assert_every_route_rederives(tables)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    which=st.integers(min_value=0, max_value=3),
    bends=st.lists(
        st.tuples(
            st.sampled_from(MUTATORS),
            st.integers(min_value=0, max_value=10**4),
            st.integers(min_value=0, max_value=10**4),
            st.sampled_from(JUNK),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_a_bent_document_is_refused_or_still_tells_one_story(documents, which, bends):
    doc = copy.deepcopy(documents[which])
    for bend, at, slot, junk in bends:
        bend(doc, at, slot, junk)
    try:
        tables = route_tables_from_dict(doc)
    except SerializationError:
        return
    assert_every_route_rederives(tables)


def test_the_mutators_reach_past_the_first_check(documents):
    """The fuzz is only worth its name if a fair share of mutants get past
    the envelope: over a fixed sweep, both answers occur for the mutators
    that bend values in place, and at least ten distinct complaints are
    heard."""
    complaints: set[str] = set()
    decoded = 0
    for doc_at, base in enumerate(documents[:3]):  # the three small ones
        for bend in MUTATORS:
            for at in range(3):
                for junk in JUNK:
                    doc = copy.deepcopy(base)
                    bend(doc, at + doc_at, at * 7 + 1, junk)
                    try:
                        assert_every_route_rederives(route_tables_from_dict(doc))
                        decoded += 1
                    except SerializationError as exc:
                        complaints.add(str(exc).split(":")[-1].strip().split(" ")[0])
    assert decoded > 50 and len(complaints) >= 10, (decoded, sorted(complaints))
