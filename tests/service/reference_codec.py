"""Two retired route-table codecs, kept as the oracles of
``test_codec_reference.py``.

**Version 2**, the codec and channel table as they stood before a route
became head channel + shared tail, verbatim.
``channel_table`` gave every route as the flat list of its channels'
numbers; the version-2 document spelled every route out as ``{"turns":
[...], "channels": [...]}`` and the decoder validated every hop of every
route on its own; the Dally–Seitz successor sets were filled one
consecutive pair of one route at a time. Three edits only: the version
constant is this module's own (``require_kind`` has moved on), the
decoder's last line builds the route through ``flat_route`` (the class no
longer takes a flat turn string and channel tuple), and the successor-set
loop of ``deadlock.dependency_cycle`` is lifted out as
:func:`reference_successors`. The standalone one-table document's
encoder and decoder are gone with the product's.

**Version 3**, the codec as it stood before the document dropped its
turns, verbatim: one tail table per generation,
each tail spelled out as ``[channel numbers, turns]``, each route a
nested ``route-table`` document's ``[head, tail, first turn]`` triple,
checked route by route. Two edits only: every name carries a ``_v3``
suffix (``route_tables_to_dict_v3``, ``_tails_v3``, ``require_kind_v3``
with its own ``FORMAT_VERSION_V3`` …) so the two versions can sit side by
side, and the encoder reads each tail's first out port through
``reference_views.outs`` (``RouteGeneration.outs`` left the product with
its only product reader, this encoder); the bodies are the parent's.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.routing.compile_routes import (
    Chain,
    CompiledRoute,
    Pair,
    RouteGeneration,
    RouteTable,
    as_generation,
)
from repro.service.serialize import SerializationError, _field, _port_ref, _turns
from repro.simulator.path_eval import Traversal
from tests.routing import reference_views
from tests.routing.reference_deadlock import flat_route

FORMAT_VERSION = 2


def require_kind(data: Any, kind: str) -> dict:
    if not isinstance(data, dict):
        raise SerializationError(f"{kind}: expected an object, got {type(data).__name__}")
    if data.get("kind") != kind:
        raise SerializationError(f"{kind}: wrong or missing kind {data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"{kind}: unsupported version {data.get('version')!r}"
        )
    return data


def channel_table(
    routes: Sequence[CompiledRoute],
) -> tuple[list[Traversal], list[list[int]]]:
    """The distinct channels of ``routes`` numbered in first-seen order, and
    every route as the list of its channels' numbers.

    A :class:`Traversal` shared between routes (as :func:`build_wire_index`
    and the wire decoder hand them out) resolves by identity; any other
    resolves by value, so a hand-built or copied route set numbers exactly
    as its interned equal does. ``routes`` must be a sequence the caller
    holds for the call: that is what keeps every ``id`` distinct while it
    is a key.
    """
    by_id: dict[int, int] = {}
    by_value: dict[Traversal, int] = {}
    channels: list[Traversal] = []
    numbered: list[list[int]] = []
    for route in routes:
        row = []
        for traversal in route.traversals:
            number = by_id.get(id(traversal))
            if number is None:
                number = by_value.get(traversal)
                if number is None:
                    number = by_value[traversal] = len(channels)
                    channels.append(traversal)
                by_id[id(traversal)] = number
            row.append(number)
        numbered.append(row)
    return channels, numbered



def _encode_tables(tables: list[RouteTable]) -> tuple[list, list[dict]]:
    """The channel list ``tables`` share, and each table's document
    (still without a channel list) referring into it."""
    ordered = [sorted(table.routes.items()) for table in tables]
    channels, numbered = channel_table(
        [route for items in ordered for _, route in items]
    )
    rows = iter(numbered)
    docs = [
        {
            "kind": "route-table",
            "version": FORMAT_VERSION,
            "host": table.host,
            "routes": {
                dst: {"turns": list(route.turns), "channels": next(rows)}
                for dst, route in items
            },
        }
        for table, items in zip(tables, ordered)
    ]
    return [
        [[c.src.node, c.src.port], [c.dst.node, c.dst.port]] for c in channels
    ], docs


def _channels(value: Any, kind: str) -> tuple[list[Traversal], list[tuple]]:
    """Validate and build every channel once: the shared objects, and their
    ``(src node, src port, dst node, dst port)`` for the per-hop checks."""
    if not isinstance(value, list):
        raise SerializationError(f"{kind}: channels is not a list")
    channels = []
    for item in value:
        if not isinstance(item, list) or len(item) != 2:
            raise SerializationError(f"{kind}: malformed channel {item!r}")
        channels.append(Traversal(_port_ref(item[0], kind), _port_ref(item[1], kind)))
    return channels, [
        (c.src.node, c.src.port, c.dst.node, c.dst.port) for c in channels
    ]


def _route(
    doc: Any, host: str, dst: str, channels: list[Traversal], ends: list[tuple]
) -> CompiledRoute:
    """One route, refused unless its turns and channels tell one story:
    the channels chain from ``host`` to ``dst`` and every turn is the out
    port minus the in port at the switch where two of them meet."""
    kind = "route-table"
    where = f"route {host!r} -> {dst!r}"
    if not isinstance(doc, dict):
        raise SerializationError(f"{kind}: {where} is not an object")
    turns = _turns(doc.get("turns"), kind, where)
    numbers = doc.get("channels")
    if not isinstance(numbers, list):
        raise SerializationError(f"{kind}: {where}: channels is not a list")
    for number in numbers:
        if type(number) is not int or not 0 <= number < len(channels):
            raise SerializationError(
                f"{kind}: {where}: malformed channel index {number!r}"
            )
    if len(numbers) != len(turns) + 1:
        raise SerializationError(
            f"{kind}: {where}: {len(turns)} turns over {len(numbers)} channels"
        )
    src_node, _, node, in_port = ends[numbers[0]]
    if src_node != host:
        raise SerializationError(f"{kind}: {where}: first channel leaves {src_node!r}")
    for turn, number in zip(turns, numbers[1:]):
        src_node, out_port, next_node, next_port = ends[number]
        if src_node != node or out_port - in_port != turn:
            raise SerializationError(
                f"{kind}: {where}: turns and channels disagree at {node!r}"
            )
        node, in_port = next_node, next_port
    if node != dst:
        raise SerializationError(f"{kind}: {where}: last channel enters {node!r}")
    return flat_route(host, dst, turns, tuple([channels[n] for n in numbers]))


def _table(data: dict, channels: list[Traversal], ends: list[tuple]) -> RouteTable:
    kind = "route-table"
    host = _field(data, kind, "host", str)
    table = RouteTable(host=host)
    for dst, doc in _field(data, kind, "routes", dict).items():
        table.routes[dst] = _route(doc, host, dst, channels, ends)
    return table


def route_tables_to_dict(tables: Mapping[str, RouteTable]) -> dict:
    """A whole generation of tables, keyed by source host."""
    hosts = sorted(tables)
    channels, docs = _encode_tables([tables[host] for host in hosts])
    return {
        "kind": "route-tables",
        "version": FORMAT_VERSION,
        "channels": channels,
        "tables": dict(zip(hosts, docs)),
    }


def route_tables_from_dict(data: Any) -> dict[str, RouteTable]:
    kind = "route-tables"
    data = require_kind(data, kind)
    channels, ends = _channels(data.get("channels"), kind)
    out: dict[str, RouteTable] = {}
    for host, doc in _field(data, kind, "tables", dict).items():
        table = _table(require_kind(doc, "route-table"), channels, ends)
        if table.host != host:
            raise SerializationError(
                f"{kind}: table keyed {host!r} claims host {table.host!r}"
            )
        out[host] = table
    return out


# ---------------------------------------------------------------------------
# Version 3: one tail table per generation, every turn spelled out
# ---------------------------------------------------------------------------

FORMAT_VERSION_V3 = 3


def require_kind_v3(data: Any, kind: str) -> dict:
    if not isinstance(data, dict):
        raise SerializationError(f"{kind}: expected an object, got {type(data).__name__}")
    if data.get("kind") != kind:
        raise SerializationError(f"{kind}: wrong or missing kind {data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION_V3:
        raise SerializationError(
            f"{kind}: unsupported version {data.get('version')!r}"
        )
    return data


# A ``route-tables`` document (one generation) lists each distinct channel
# (directed wire half) once, as ``[[node, port], [node, port]]``, and each
# distinct tail (the chain from an entry switch to a destination) once, as
# ``[channel numbers, turns between them]``. The ``route-table`` documents
# nested in it carry no lists of their own: a route is ``[head channel,
# tail, first turn]`` by position in the generation's lists.

def _channels_v3(value: Any, kind: str) -> list[tuple]:
    """Validate and build every channel once: per channel its ``(src node,
    src port, dst node, dst port)`` for the chain checks, then the shared
    object, then its number (one ``int`` object per number: a generation
    keeps none of the document's)."""
    if not isinstance(value, list):
        raise SerializationError(f"{kind}: channels is not a list")
    channels = []
    for at, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise SerializationError(f"{kind}: malformed channel {item!r}")
        src, dst = _port_ref(item[0], kind), _port_ref(item[1], kind)
        channels.append((src.node, src.port, dst.node, dst.port, Traversal(src, dst), at))
    return channels


def _tails_v3(value: Any, kind: str, channels: list[tuple]) -> tuple[list, list, list]:
    """Validate every tail once: its channels chain and every turn is the
    out port minus the in port at the switch where two of them meet. Per
    tail, its ``(entry node, first out port, last node)`` for the
    per-route junction check (``None`` for an empty tail) and its own
    number; then the generation's chains — each tail but its last channel,
    interned — and per tail its chain and last channel."""
    if not isinstance(value, list):
        raise SerializationError(f"{kind}: tails is not a list")
    tails: list[tuple] = []
    chains: dict[Chain, int] = {}  # interned, in first-seen order
    pairs: list[Pair] = []
    for at, item in enumerate(value):
        where = f"tail {at}"
        if not isinstance(item, list) or len(item) != 2:
            raise SerializationError(f"{kind}: malformed {where}")
        numbers, turns = item[0], _turns(item[1], kind, where)
        if not isinstance(numbers, list):
            raise SerializationError(f"{kind}: {where}: channels is not a list")
        for number in numbers:
            if type(number) is not int or not 0 <= number < len(channels):
                raise SerializationError(
                    f"{kind}: {where}: malformed channel index {number!r}"
                )
        # one turn fewer than channels; the empty tail has neither
        if len(numbers) != len(turns) + bool(numbers):
            raise SerializationError(
                f"{kind}: {where}: {len(turns)} turns over {len(numbers)} channels"
            )
        junction = None
        if numbers:
            entry, first_out, node, in_port, _, _ = channels[numbers[0]]
            for turn, number in zip(turns, numbers[1:]):
                src_node, out_port, next_node, next_port, _, _ = channels[number]
                if src_node != node or out_port - in_port != turn:
                    raise SerializationError(
                        f"{kind}: {where}: turns and channels disagree at {node!r}"
                    )
                node, in_port = next_node, next_port
            junction = (entry, first_out, node)
        row = tuple([channels[n][5] for n in numbers])
        chain = chains.setdefault((row[:-1], turns[:-1]), len(chains))
        pairs.append((chain, row[-1] if row else None))
        tails.append((junction, at))
    return tails, list(chains), pairs


def _route_v3(
    doc: Any, host: str, dst: str, channels: list[tuple], tails: list[tuple]
) -> tuple[int, int]:
    """One route's head and tail numbers, refused unless its turns and
    channels tell one story at the one place its tail has not already
    proven it: the head channel leaves ``host`` and meets the tail's first
    channel under the stated first turn, and the tail (or, over an empty
    tail, the head) enters ``dst``."""
    if not isinstance(doc, list) or len(doc) != 3:
        raise _refused_v3(host, dst, "not a [head, tail, first turn] triple")
    head, tail, turn = doc
    if type(head) is not int or not 0 <= head < len(channels):
        raise _refused_v3(host, dst, f"malformed channel index {head!r}")
    if type(tail) is not int or not 0 <= tail < len(tails):
        raise _refused_v3(host, dst, f"malformed tail index {tail!r}")
    src_node, _, node, in_port, _, _ = channels[head]
    junction, tail = tails[tail]
    if src_node != host:
        raise _refused_v3(host, dst, f"first channel leaves {src_node!r}")
    if junction is None:
        if turn is not None:
            raise _refused_v3(host, dst, f"first turn {turn!r} over an empty tail")
    else:
        entry, first_out, last = junction
        if type(turn) is not int:
            raise _refused_v3(host, dst, f"malformed first turn {turn!r}")
        if entry != node or first_out - in_port != turn:
            raise _refused_v3(host, dst, f"turns and channels disagree at {node!r}")
        node = last
    if node != dst:
        raise _refused_v3(host, dst, f"last channel enters {node!r}")
    return head, tail


def _refused_v3(host: str, dst: str, why: str) -> SerializationError:
    return SerializationError(f"route-table: route {host!r} -> {dst!r}: {why}")


def _table_v3(
    data: dict, channels: list[tuple], tails: list[tuple]
) -> tuple[str, int | None, dict[str, int]]:
    """A table's host, its one head channel and its routes' tail numbers."""
    kind = "route-table"
    host = _field(data, kind, "host", str)
    first, routes = None, {}
    for dst, doc in _field(data, kind, "routes", dict).items():
        head, routes[dst] = _route_v3(doc, host, dst, channels, tails)
        if first is not None and head != first:
            raise _refused_v3(host, dst, f"leaves by channel {head}, its table by {first}")
        first = head
    return host, first, routes


def route_tables_to_dict_v3(tables: Mapping[str, RouteTable]) -> dict:
    """A whole generation of tables, keyed by source host."""
    generation = as_generation(tables)
    outs = reference_views.outs(generation)

    def routes(host: str) -> dict:
        head, in_port = generation.heads.get(host), generation.in_port(host)
        return {
            dst: [head, tail, None if (out := outs[tail]) is None else out - in_port]
            for dst, tail in sorted(generation.numbered[host].items())
        }

    return {
        "kind": "route-tables",
        "version": FORMAT_VERSION_V3,
        "channels": [
            [[c.src.node, c.src.port], [c.dst.node, c.dst.port]]
            for c in generation.channels
        ],
        # a tail is its chain, then its last channel
        "tails": [
            [[] if last is None else [*generation.chains[chain][0], last], list(turns)]
            for (chain, last), (_, turns) in zip(generation.pairs, generation.turn_keys)
        ],
        "tables": {
            host: {
                "kind": "route-table",
                "version": FORMAT_VERSION_V3,
                "host": host,
                "routes": routes(host),
            }
            for host in sorted(generation)
        },
    }


def route_tables_from_dict_v3(data: Any) -> RouteGeneration:
    kind = "route-tables"
    data = require_kind_v3(data, kind)
    channels = _channels_v3(data.get("channels"), kind)
    tails, chains, pairs = _tails_v3(data.get("tails"), kind, channels)
    heads: dict[str, int] = {}
    numbered: dict[str, dict[str, int]] = {}
    for host, doc in _field(data, kind, "tables", dict).items():
        claimed, head, numbered[host] = _table_v3(
            require_kind_v3(doc, "route-table"), channels, tails
        )
        if claimed != host:
            raise SerializationError(
                f"{kind}: table keyed {host!r} claims host {claimed!r}"
            )
        if head is not None:
            heads[host] = head
    return RouteGeneration([channel[4] for channel in channels], chains, pairs, heads, numbered)


def reference_successors(
    routes: Sequence[CompiledRoute],
) -> tuple[list[Traversal], list[set[int]]]:
    """The numbered channels and, per channel, the set of channels some
    route wants next while holding it."""
    channels, numbered = channel_table(routes)
    successors: list[set[int]] = [set() for _ in channels]
    for row in numbered:
        for held, wanted in zip(row, row[1:]):
            successors[held].add(wanted)
    return channels, successors
