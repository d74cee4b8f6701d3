"""The route-table codec and channel table as they stood before a route
became head channel + shared tail (the parent of PR 22), kept verbatim as
the oracle of ``test_codec_reference.py``.

``channel_table`` gave every route as the flat list of its channels'
numbers; the version-2 document spelled every route out as ``{"turns":
[...], "channels": [...]}`` and the decoder validated every hop of every
route on its own; the Dally–Seitz successor sets were filled one
consecutive pair of one route at a time. Three edits only: the version
constant is this module's own (``require_kind`` has moved on to 3), the
decoder's last line builds the route through ``flat_route`` (the class no
longer takes a flat turn string and channel tuple), and the successor-set
loop of ``deadlock.dependency_cycle`` is lifted out as
:func:`reference_successors`. The standalone one-table document's
encoder and decoder are gone with the product's.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.routing.compile_routes import CompiledRoute, RouteTable
from repro.service.serialize import SerializationError, _field, _port_ref, _turns
from repro.simulator.path_eval import Traversal
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
