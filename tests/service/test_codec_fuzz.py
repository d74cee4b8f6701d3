"""Structure-aware fuzz of the version-4 ``route-tables`` document.

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
duplicated; whole channels, chains, tails or tables replaced by junk;
every kind of number — a chain's channel numbers, a tail's chain and last
channel, a table's head, a route's tail — replaced by a bool, float,
string, ``None``, list, negative, out-of-range or merely *other* number;
another table's head, or the head moved by one; chains cut at either end
or lengthened; chains or tails swapped where they stand; a route spliced
from another host or destination, or handed back in the version-3 triple
or the version-2 shape; channel ends renamed or re-ported. A real
version-3 document of each fabric is refused by its version, and
relabelled as version 4, by its shape.

Decoder mutants run by hand against this file (``pytest -x``;
twenty-three, nineteen killed here), each with the check removed from ``serialize.py``
and the shrunk draw that kills it — ``(mutator, at, slot, junk)`` on
document ``which=0``:

- ``_indices``: no ``int``-only type pass — ``(cut_route, 0, 0, True)``,
  ``TypeError`` comparing an ``int`` with a list; no range pass —
  ``(chain_channel, 1, 0, 10**6)`` or ``(route_index, 0, 0, 10**6)``,
  ``IndexError``;
- ``_channels``: no ``[end, end]`` shape check — ``(retype_entry, 0, 0,
  True)``, ``TypeError``;
- ``_chains``: no list check — ``(retype_entry, 0, 1, True)``,
  ``TypeError``; no index pass — ``(chain_channel, 1, 0, 0.5)``,
  ``TypeError``; no continuity check — the fixed sweep of
  ``test_the_mutators_reach_past_the_first_check``: "channels chain";
- ``_tails``: no ``[chain, last]`` pair check — ``(retype_entry, 0, 2,
  {})``, ``IndexError``; no chain index pass — ``(tail_pair, 0, 0, 0.5)``
  and no last-channel index pass — ``(tail_pair, 0, 1, 0.5)``,
  ``TypeError``; last channel not compared with where its chain ends —
  ``(bend_channel, 3, 2, True)``: "channels chain";
- ``_table``: no table-object check — ``(retype_entry, 0, 3, True)``,
  ``TypeError``; no head index pass — the fixed sweep, ``IndexError``;
  head not compared with the host — ``(duplicate_table, 0, 0, True)``:
  "leaves its source"; no tail index pass — ``(cut_route, 0, 0, True)``,
  ``TypeError``;
- ``_table``, the C-level passes: no entry pass — ``(cut_chain, 1, 0,
  True)``: "channels chain"; no exit pass — ``(duplicate_route, 0, 1,
  True)``: "enters its destination";
- ``_table``, the route-by-route walk a failed pass falls back to: no
  entry check — ``(foreign_route, 0, 0, True)``: "channels chain"; no exit
  check — ``(duplicate_route, 172, 973, True)``: "enters its
  destination";
- ``require_kind``: no version check —
  ``test_a_version_3_document_is_refused_whole``.

Four survive this file, because what they let through is not a route
that fails to re-derive, and ``test_serialize.py``'s doctors kill each:
``head`` / ``routes`` agreement dropped (a table whose head is ``null``
decodes with its routes silently dropped) — "head None over 1 routes";
the ``head`` field's type check replaced by ``doc.get`` (a missing head
reads as ``null``) — "missing field 'head'"; a non-string table key
accepted (an empty table under ``0``) — "table 0 is malformed"; and
``_field`` letting a ``bool`` through, which the route decoder's index
passes refuse anyway — the ``map_result`` cases "search-depth-is-a-bool"
and "stats-count-is-a-bool".
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.compile_routes import RouteGeneration, RouteTable, compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import (
    SerializationError,
    route_tables_from_dict,
    route_tables_to_dict,
)
from tests.routing.test_route_tables_golden import FABRICS
from tests.service import reference_codec

#: What a number in the document may be replaced by; an ``int`` stays an
#: ``int`` (taken modulo nothing: negative and far out of range included).
JUNK = [True, False, 0.5, 1.0, "1", None, [0], {}, -1, -7, 10**6, 0, 1, 2, 3, 5, 8, 13]


#: Small, and between them every shape: shared tails, owned tails over
#: parallel cables, the empty tail of a host–host cable, an empty table.
NAMES = ("parallel-cables", "host-host-island", "unattached-host", "random-10-seed3")


def _tables(name: str) -> RouteGeneration:
    net = FABRICS[name]()
    orientation = orient_updown(net)
    paths = all_pairs_updown_paths(net, orientation)
    return compile_route_tables(net, paths, seed=0)


@pytest.fixture(scope="module")
def documents() -> list[dict]:
    return [json.loads(json.dumps(route_tables_to_dict(_tables(name)))) for name in NAMES]


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
        ["route-table", "map-result", 3, 2, "4", 4.5, None, junk], slot
    )


def retype_field(doc, at, slot, junk):
    doc[_pick(["channels", "chains", "tails", "tables"], at)] = _pick(
        [junk, {}, [], "x", [junk]], slot
    )


def _table_docs(doc) -> list[dict]:
    tables = doc.get("tables")
    return [t for t in tables.values() if isinstance(t, dict)] if isinstance(tables, dict) else []


def table_field(doc, at, slot, junk):
    table = _pick(_table_docs(doc), at)
    if table is not None:
        field = _pick(["head", "routes", "kind", "host"], slot)
        if junk is None and slot % 2:
            table.pop(field, None)
        else:
            table[field] = junk


def other_head(doc, at, slot, junk):
    """Another table's honest head, or the head moved by one: a channel
    that leaves some other host, or lands elsewhere."""
    tables = _table_docs(doc)
    table = _pick(tables, at)
    if table is not None:
        other = _pick(tables, slot).get("head")
        nudged = table.get("head") + 1 if isinstance(table.get("head"), int) else junk
        table["head"] = _pick([other, nudged], at + slot)


def retype_entry(doc, at, slot, junk):
    """A whole channel, chain, tail or table replaced by junk."""
    rows = doc.get(_pick(["channels", "chains", "tails", "tables"], slot))
    if isinstance(rows, list) and rows:
        rows[at % len(rows)] = junk
    elif isinstance(rows, dict) and rows:
        rows[_pick(sorted(rows), at)] = junk


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
    rows = doc.get(_pick(["channels", "chains", "tails"], slot))
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
    """A route's tail number replaced by junk, or by another number."""
    routes = _routes(doc)
    if routes:
        routes_of, dst = _pick(routes, at)
        routes_of[dst] = junk


def cut_route(doc, at, slot, junk):
    """A route in another shape: a list around its tail, the version-3
    triple, the version-2 object."""
    routes = _routes(doc)
    if routes:
        routes_of, dst = _pick(routes, at)
        old = routes_of[dst]
        routes_of[dst] = _pick(
            [[old], [0, old, junk], {"turns": [junk], "channels": [old]}, [], str(old)], slot
        )


def _row(doc, name, at):
    rows = doc.get(name)
    row = _pick(rows, at) if isinstance(rows, list) else None
    return row if isinstance(row, list) else None


def chain_channel(doc, at, slot, junk):
    chain = _row(doc, "chains", at)
    if chain:
        chain[slot % len(chain)] = junk


def cut_chain(doc, at, slot, junk):
    """A chain one channel short at either end, or one longer."""
    chain = _row(doc, "chains", at)
    if chain:
        if slot % 3 == 0:
            del chain[-1]
        elif slot % 3 == 1:
            del chain[0]
        else:
            chain.append(junk if isinstance(junk, int) else chain[0])


def splice_rows(doc, at, slot, junk):
    """Swap two chains or two tails where they stand: every tail or route
    naming either now names a valid one of some other place."""
    rows = doc.get(_pick(["chains", "tails"], at + slot))
    if isinstance(rows, list) and len(rows) > 1:
        a, b = at % len(rows), slot % len(rows)
        rows[a], rows[b] = rows[b], rows[a]


def tail_pair(doc, at, slot, junk):
    """A tail's chain or last channel replaced by junk, another number or
    ``None``; or the pair cut short or made longer."""
    tail = _row(doc, "tails", at)
    if tail:
        if slot % 4 < 2:
            tail[slot % len(tail)] = junk
        elif slot % 4 == 2:
            tail[-1] = None
        else:
            tail[:] = _pick([tail[:1], [*tail, junk], [list(tail)]], at)


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
    other_head,
    retype_entry,
    duplicate_table,
    duplicate_route,
    duplicate_entry,
    foreign_route,
    route_index,
    cut_route,
    chain_channel,
    cut_chain,
    splice_rows,
    tail_pair,
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


@pytest.mark.parametrize("name", NAMES)
def test_a_version_3_document_is_refused_whole(name):
    """The parent's document of the same generation: refused by its
    version, and — relabelled as version 4 — by its shape."""
    doc = json.loads(json.dumps(reference_codec.route_tables_to_dict_v3(_tables(name))))
    with pytest.raises(SerializationError, match="unsupported version 3"):
        route_tables_from_dict(doc)
    doc["version"] = 4
    with pytest.raises(SerializationError, match="chains is not a list"):
        route_tables_from_dict(doc)
