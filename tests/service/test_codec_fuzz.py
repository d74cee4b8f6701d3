"""Structure-aware fuzz of the version-4 ``route-tables`` document and
the version-5 ``route-delta`` document.

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

The version-5 ``route-delta`` is held to the same two answers, applied to
the generation it names: a held generation decoded from its version-4
document, with the delta the route memo's patch gives after one trunk cut
on subcluster C, a ring with two hosts per switch and the default fat
tree. Its mutations bend the envelope and the ``base`` id; a channel entry
(junk, the next held number, another entry, a held number in a list, a
held number replaced by a new channel's or nowhere's ports, entries
swapped, dropped or listed twice); a new channel's ports; a changed
chain's number or row (junk, another number, a channel replaced, cut at
either end, lengthened, reversed, the pair the wrong length); and another
chain given a changed chain's row or an empty one. A delta against
another id or with no held generation is refused by its base, a
version-4 document stamped version 5 by its version and stamped a delta
by its shape, and the reverse likewise; a delta applied to another
generation under its own id is refused or re-derives.

Decoder mutants of ``_applied`` run by hand against this file (fifteen,
all killed), each with the check removed and what kills it — a draw is
``(mutator, at, slot, junk)`` on delta ``which=0``:

- no held-generation check — ``test_a_delta_applied_to_the_wrong_base_is_refused``,
  ``TypeError``; no ``base`` id check — the same test, nothing raised;
- no range or listed-twice check on a held number — the fixed sweep,
  ``IndexError``; a ``bool`` taken as a held number, and a channel entry
  of three ends read as its first two —
  ``test_a_delta_with_a_well_meant_fault_is_refused``;
- a new channel's ends not checked as port refs —
  ``(bend_new_channel, 1, 1, "1")``, ``TypeError`` deriving a turn;
- a changed chain's ``[chain, channels]`` shape unchecked —
  ``(changed_chain, 0, 7, True)``, ``ValueError``; its number unchecked —
  ``(changed_chain, 0, 0, 0.5)``, ``TypeError``; its row unchecked —
  ``(delta_retype_field, 0, 952, True)``, ``IndexError``; a chain changed
  twice taken as its last change — the well-meant-fault test;
- no continuity check — ``(bend_new_channel, 2, 2, True)``: "channels
  chain"; no check that a changed chain starts and ends where the held
  one did — ``(add_chain, 2, 0, True)``: "channels chain";
- a kept chain over a dropped channel accepted — ``(held_as_new, 168, 0,
  True)``: "channels chain"; a dropped head or last channel accepted —
  ``(held_as_new, 1, 0, True)``, a route read off channel ``-1``;
- no version check on a delta — ``test_a_relabelled_document_is_refused``.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.compile_routes import (
    RouteGeneration,
    RouteMemo,
    RouteTable,
    compile_route_tables,
)
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import (
    SerializationError,
    route_delta_to_dict,
    route_tables_from_dict,
    route_tables_to_dict,
)
from repro.topology.generators import build_named_topology
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


# -- version 5: the route-delta ----------------------------------------------
#: Fabrics and the trunk cut whose patched generation is the delta: between
#: them, changed chains over held and new channels, on leaf switches and on
#: switches with two hosts.
CUTS = (
    ("now-c", {}, 3),
    ("ring", {"size": 6, "hosts_per_switch": 2}, 0),
    ("fat-tree-3tier", {}, 2),
)


def _patched(topology: str, params: dict, cut: int) -> tuple[RouteGeneration, RouteGeneration]:
    """A generation compiled through a route memo, and the one the memo
    patches from it after the ``cut``-th trunk cable is pulled."""
    net = build_named_topology(topology, params)
    memo = RouteMemo()

    def compiled() -> RouteGeneration:
        return compile_route_tables(net, all_pairs_updown_paths(net, orient_updown(net)), memo=memo)

    held = compiled()
    memo.commit(held)
    trunk = sorted(
        (w for w in net.wires if net.is_switch(w.a.node) and net.is_switch(w.b.node)),
        key=lambda w: w.key,
    )
    net.disconnect(trunk[cut])
    return held, compiled()


@pytest.fixture(scope="module")
def deltas() -> list[tuple[dict, tuple[str, RouteGeneration], RouteGeneration]]:
    """Per cut: the delta document, the held generation as the reader
    holds it (decoded from its version-4 document) under its id, and the
    patched generation the delta stands for."""
    out = []
    for topology, params, cut in CUTS:
        held, patched = _patched(topology, params, cut)
        doc = route_delta_to_dict(patched, ("held", held))
        assert doc is not None and doc["chains"], topology
        held_as_read = route_tables_from_dict(json.loads(json.dumps(route_tables_to_dict(held))))
        out.append((json.loads(json.dumps(doc)), ("held", held_as_read), patched))
    return out


def _entries(doc) -> list:
    entries = doc.get("channels")
    return entries if isinstance(entries, list) else []


def _changed(doc) -> list:
    chains = doc.get("chains")
    return [c for c in chains if isinstance(c, list)] if isinstance(chains, list) else []


def delta_retag(doc, at, slot, junk):
    doc[_pick(["kind", "version", "base"], at)] = _pick(
        ["route-tables", "route-delta", 4, 5, "5", 5.0, None, "other", junk], slot
    )


def delta_retype_field(doc, at, slot, junk):
    doc[_pick(["channels", "chains"], at)] = _pick([junk, {}, [], "x", [junk]], slot)


def channel_entry(doc, at, slot, junk):
    """A channel entry replaced by junk, by the next held number, by
    another entry, or by a held number wrapped in a list."""
    entries = _entries(doc)
    if entries:
        k = at % len(entries)
        entry = entries[k]
        nudged = entry + 1 if type(entry) is int else junk
        entries[k] = _pick([junk, nudged, copy.deepcopy(_pick(entries, at + 1)), [entry]], slot)


def bend_new_channel(doc, at, slot, junk):
    """A new channel's node renamed or port moved, or one end replaced."""
    new = [e for e in _entries(doc) if isinstance(e, list) and len(e) == 2]
    channel = _pick(new, at)
    if channel is not None:
        end = channel[slot % 2]
        if isinstance(end, list) and len(end) == 2:
            if slot % 4 < 2:
                end[1] = end[1] + 1 if isinstance(end[1], int) and junk is None else junk
            else:
                renamed = end[0] + "x" if isinstance(end[0], str) else 0
                end[0] = _pick(["nowhere", junk, renamed], at)
        else:
            channel[slot % 2] = junk


def held_as_new(doc, at, slot, junk):
    """A held channel's number replaced by a new channel's ports: another
    new channel's, or the ports of nowhere."""
    entries = _entries(doc)
    held = [k for k, e in enumerate(entries) if type(e) is int]
    new = [e for e in entries if isinstance(e, list)]
    if held:
        k = _pick(held, at)
        nowhere = [["nowhere", 0], ["nowhere", 1]]
        entries[k] = copy.deepcopy(_pick(new, slot)) if new and slot % 2 else nowhere


def shuffle_entries(doc, at, slot, junk):
    """Two channel entries swapped, one dropped, or one listed twice."""
    entries = _entries(doc)
    if len(entries) > 1:
        a, b = at % len(entries), slot % len(entries)
        if (at + slot) % 3 == 0:
            entries[a], entries[b] = entries[b], entries[a]
        elif (at + slot) % 3 == 1:
            del entries[a]
        else:
            entries.insert(b, copy.deepcopy(entries[a]))


def changed_chain(doc, at, slot, junk):
    """A changed chain's number or row replaced by junk or another number,
    a channel of its row replaced, the row cut at either end, lengthened
    or reversed, or the pair made the wrong length."""
    item = _pick(_changed(doc), at)
    if item is None:
        return
    row = item[1] if len(item) == 2 and isinstance(item[1], list) else None
    choice = slot % 8
    if choice == 0:
        item[0] = junk
    elif choice == 1:
        item[0] = item[0] + 1 if type(item[0]) is int else junk
    elif choice == 2:
        item[1] = junk
    elif choice == 3 and row:
        row[at % len(row)] = junk
    elif choice == 4 and row:
        del row[0 if at % 2 else -1]
    elif choice == 5 and row:
        row.append(row[0] if junk is None else junk)
    elif choice == 6 and row:
        row.reverse()
    else:
        item[:] = _pick([item[:1], [*item, junk], [item]], at)


def add_chain(doc, at, slot, junk):
    """Another chain number given another changed chain's row, an empty
    row, or a changed chain listed twice."""
    chains = doc.get("chains")
    items = _changed(doc)
    if isinstance(chains, list) and items:
        donor = copy.deepcopy(_pick(items, slot))
        if at % 3 == 0:
            chains.append(donor)
        elif len(donor) == 2:
            donor[0] = at % 64
            if at % 3 == 2:
                donor[1] = []
            chains.append(donor)


DELTA_MUTATORS = [
    drop_field,
    delta_retag,
    delta_retype_field,
    channel_entry,
    bend_new_channel,
    held_as_new,
    shuffle_entries,
    changed_chain,
    add_chain,
]


def test_an_unbent_delta_applies_to_the_patched_generation(deltas):
    for doc, base, patched in deltas:
        tables = route_tables_from_dict(doc, base=base)
        for name in ("channels", "chains", "pairs", "heads", "numbered"):
            assert getattr(tables, name) == getattr(patched, name), name
        assert tables.numbered is base[1].numbered
        assert_every_route_rederives(tables)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    which=st.integers(min_value=0, max_value=len(CUTS) - 1),
    bends=st.lists(
        st.tuples(
            st.sampled_from(DELTA_MUTATORS),
            st.integers(min_value=0, max_value=10**4),
            st.integers(min_value=0, max_value=10**4),
            st.sampled_from(JUNK),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_a_bent_delta_is_refused_or_still_tells_one_story(deltas, which, bends):
    doc, base, _ = deltas[which]
    doc = copy.deepcopy(doc)
    for bend, at, slot, junk in bends:
        bend(doc, at, slot, junk)
    try:
        tables = route_tables_from_dict(doc, base=base)
    except SerializationError:
        return
    assert_every_route_rederives(tables)


def test_the_delta_mutators_reach_past_the_first_check(deltas):
    """As for version 4: over a fixed sweep, both answers occur and at
    least eight distinct complaints are heard."""
    complaints: set[str] = set()
    decoded = 0
    for doc_at, (base_doc, base, _) in enumerate(deltas):
        for bend in DELTA_MUTATORS:
            for at in range(4):
                for junk in JUNK:
                    doc = copy.deepcopy(base_doc)
                    bend(doc, at + doc_at, at * 7 + 1, junk)
                    try:
                        assert_every_route_rederives(route_tables_from_dict(doc, base=base))
                        decoded += 1
                    except SerializationError as exc:
                        words = str(exc).split(" ")[1:]
                        complaints.add(" ".join([w for w in words if w.isalpha()][:3]))
    assert decoded > 50 and len(complaints) >= 8, (decoded, sorted(complaints))


def _first_held(doc) -> int:
    return next(k for k, e in enumerate(doc["channels"]) if type(e) is int and e == 1)


def _first_new(doc) -> int:
    return next(k for k, e in enumerate(doc["channels"]) if type(e) is list)


@pytest.mark.parametrize(
    "bend, complaint",
    [
        (lambda d: d["channels"].__setitem__(_first_held(d), True), "malformed channel True"),
        (lambda d: d["channels"][_first_new(d)].append(["s", 0]), "malformed channel"),
        (lambda d: d["chains"].append(copy.deepcopy(d["chains"][0])), "is changed twice"),
    ],
    ids=["a-boolean-held-number", "a-channel-with-three-ends", "a-chain-changed-twice"],
)
def test_a_delta_with_a_well_meant_fault_is_refused(deltas, bend, complaint):
    """Faults that would still decode into routes that re-derive — ``true``
    read as held channel 1, a third end ignored, the last of two changes
    to one chain taken — so the fuzz cannot see them: each is refused."""
    doc = copy.deepcopy(deltas[0][0])
    bend(doc)
    with pytest.raises(SerializationError, match=complaint):
        route_tables_from_dict(doc, base=deltas[0][1])


def test_only_a_generation_that_keeps_the_held_routes_is_a_delta():
    """The encoder writes a delta only over the held generation's own
    ``numbered``, tails and heads: a generation in which one route names
    another tail, or one compiled whole, is written whole."""
    held, patched = _patched(*CUTS[0])
    assert route_delta_to_dict(patched, ("held", held)) is not None
    host = next(h for h, routes in held.numbered.items() if len(set(routes.values())) > 1)
    routes = dict(held.numbered[host])
    first, second = list(routes)[:2]
    routes[first], routes[second] = routes[second], routes[first]
    moved = RouteGeneration(
        held.channels, held.chains, held.pairs, held.heads, {**held.numbered, host: routes}
    )
    assert route_delta_to_dict(moved, ("held", held)) is None
    whole = route_tables_from_dict(route_tables_to_dict(patched))
    assert route_delta_to_dict(whole, ("held", held)) is None


def test_a_delta_applied_to_the_wrong_base_is_refused(deltas):
    """Another generation's id, or none held at all: refused whole."""
    doc, (_, held), _ = deltas[0]
    with pytest.raises(SerializationError, match="made against 'held', not 'other'"):
        route_tables_from_dict(doc, base=("other", held))
    with pytest.raises(SerializationError, match="no held generation"):
        route_tables_from_dict(doc)


def test_a_delta_applied_to_another_generation_under_its_id(deltas):
    """A holder that names the wrong generation by the right id: the checks
    still stand between it and a route that does not re-derive."""
    for doc, _, _ in deltas:
        for _, (_, other), _ in deltas:
            try:
                tables = route_tables_from_dict(doc, base=("held", other))
            except SerializationError:
                continue
            assert_every_route_rederives(tables)


def test_a_relabelled_document_is_refused(deltas):
    """A version-4 document stamped version 5, or stamped a version-5 delta;
    a delta stamped version 4, or stamped a version-4 document."""
    doc, base, patched = deltas[0]
    full = json.loads(json.dumps(route_tables_to_dict(patched)))
    with pytest.raises(SerializationError, match="unsupported version 5"):
        route_tables_from_dict({**full, "version": 5}, base=base)
    with pytest.raises(SerializationError, match="not a \\[chain, channels\\] pair"):
        relabelled = {**full, "kind": "route-delta", "version": 5, "base": "held"}
        route_tables_from_dict(relabelled, base=base)
    with pytest.raises(SerializationError, match="unsupported version 4"):
        route_tables_from_dict({**doc, "version": 4}, base=base)
    with pytest.raises(SerializationError, match="malformed channel"):
        route_tables_from_dict({**doc, "kind": "route-tables", "version": 4}, base=base)
