"""JSON codecs for the service boundary: map results and route tables.

The server process and its simulator workers exchange everything as JSON:
a worker returns a serialized :class:`~repro.core.mapper.MapResult` plus
route tables, and the server hands witness seeds back for incremental
cycles. Clients receive the same documents over the wire, so the codecs
live here rather than inside the server — archiving a result, diffing two
of them, or replaying a worker payload all use the same format.

Every ``*_from_dict`` validates shape before building anything and raises
:class:`SerializationError` (a :class:`ValueError`) on malformed input —
a service must reject a bad payload with a clean error, never half-build
state from it. Every ``*_to_dict`` emits only JSON-native types, so
``json.dumps(doc)`` always succeeds and round-trips.

A ``route-tables`` document (version 4) is a
:class:`~repro.routing.compile_routes.RouteGeneration` written by number,
with nothing in it that the rest derives: the encoder writes the
generation's own channels, chains (channel numbers only), tails (chain and
last channel) and, per host, its head channel and each route's tail number
(a hand-built table set is numbered first, by
:func:`~repro.routing.compile_routes.as_generation`). No turn is written.
The decoder derives every turn from the ports, refuses any number, chain,
tail, head or route whose channels do not meet where the document says,
checks each table in a few C-level passes over its routes, and builds the
generation over the document's numbers with one ``int`` per number — no
route object until a table is read.

A ``route-delta`` document (version 5) stands in for a ``route-tables``
document when the generation keeps every route, tail and head of one the
reader already holds, as a generation patched from it does: it names that
generation, lists the new channels (each a held channel's number, or the
ports of a new one) and spells only the chains whose channels changed.
The decoder applies it to the held generation, re-runs the version-4
checks on what it changes and takes the rest from the held generation by
identity (docs/SERVICE.md, "A cut crosses the wire as what it changed").
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Mapping

from repro.core.mapper import MapResult
from repro.routing.compile_routes import Chain, Pair, RouteGeneration, RouteTable, as_generation
from repro.simulator.path_eval import Traversal
from repro.simulator.probes import ProbeStats
from repro.topology.model import PortRef
from repro.topology.serialize import network_from_dict, network_to_dict

__all__ = [
    "SerializationError",
    "map_result_from_dict",
    "map_result_to_dict",
    "probe_stats_from_dict",
    "probe_stats_to_dict",
    "require_kind",
    "route_delta_to_dict",
    "route_tables_from_dict",
    "route_tables_to_dict",
]

#: Version stamp of every document this module emits; bump on any shape
#: change so a mixed-version server/worker pair fails loudly, not subtly.
#: A ``map-result`` document may change shape without a bump: its decoder
#: refuses a key it does not read as it refuses a missing one, so a reader
#: on either side of such a change refuses the other side's document.
FORMAT_VERSION = 4

#: Version stamp of a ``route-delta`` document: the one kind that is newer
#: than the documents it is read beside.
DELTA_VERSION = 5


#: The one type a number in a document may have: ``int``, never ``bool``
#: (``_INT.issuperset(map(type, numbers))`` checks a whole list at C speed).
_INT = {int}


class SerializationError(ValueError):
    """A payload does not describe the object it claims to."""


def require_kind(data: Any, kind: str) -> dict:
    """The kind/version envelope check every ``*_from_dict`` runs first."""
    if not isinstance(data, dict):
        raise SerializationError(f"{kind}: expected an object, got {type(data).__name__}")
    if data.get("kind") != kind:
        raise SerializationError(f"{kind}: wrong or missing kind {data.get('kind')!r}")
    if data.get("version") != (DELTA_VERSION if kind == "route-delta" else FORMAT_VERSION):
        raise SerializationError(
            f"{kind}: unsupported version {data.get('version')!r}"
        )
    return data


def _field(data: Mapping, kind: str, name: str, types: type | tuple) -> Any:
    try:
        value = data[name]
    except KeyError:
        raise SerializationError(f"{kind}: missing field {name!r}") from None
    # A JSON boolean is a field of its own: never a count, never coerced.
    if not isinstance(value, types) or (type(value) is bool) != (types is bool):
        raise SerializationError(
            f"{kind}: field {name!r} has type {type(value).__name__}"
        )
    return value


def _turns(value: Any, kind: str, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in value
    ):
        raise SerializationError(f"{kind}: {where} is not a turn list")
    return tuple(value)


def _port_ref(value: Any, kind: str) -> PortRef:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
        or not isinstance(value[1], int)
        or isinstance(value[1], bool)
    ):
        raise SerializationError(f"{kind}: malformed port ref {value!r}")
    return PortRef(value[0], value[1])


# ---------------------------------------------------------------------------
# ProbeStats
# ---------------------------------------------------------------------------

def probe_stats_to_dict(stats: ProbeStats) -> dict:
    return {
        "kind": "probe-stats",
        "version": FORMAT_VERSION,
        "host_probes": stats.host_probes,
        "host_hits": stats.host_hits,
        "switch_probes": stats.switch_probes,
        "switch_hits": stats.switch_hits,
        "elapsed_us": stats.elapsed_us,
    }


def probe_stats_from_dict(data: Any) -> ProbeStats:
    kind = "probe-stats"
    data = require_kind(data, kind)
    return ProbeStats(
        host_probes=_field(data, kind, "host_probes", int),
        host_hits=_field(data, kind, "host_hits", int),
        switch_probes=_field(data, kind, "switch_probes", int),
        switch_hits=_field(data, kind, "switch_hits", int),
        elapsed_us=float(_field(data, kind, "elapsed_us", (int, float))),
    )


# ---------------------------------------------------------------------------
# MapResult
# ---------------------------------------------------------------------------

#: Every key of a ``map-result`` document: what the decoder reads, and all
#: it accepts. ``MapResult.growth`` (Figure 8's trace) stays in-process.
_MAP_RESULT_KEYS = frozenset({
    "kind", "version", "network", "stats", "mapper_host", "search_depth",
    "explorations", "merges", "peak_model_nodes", "witnesses", "entry_ports",
    "seeded", "kept_nodes", "seed_fallback",
})


def map_result_to_dict(result: MapResult) -> dict:
    return {
        "kind": "map-result",
        "version": FORMAT_VERSION,
        "network": network_to_dict(result.network),
        "stats": probe_stats_to_dict(result.stats),
        "mapper_host": result.mapper_host,
        "search_depth": result.search_depth,
        "explorations": result.explorations,
        "merges": result.merges,
        "peak_model_nodes": result.peak_model_nodes,
        "witnesses": {
            name: list(turns) for name, turns in sorted(result.witnesses.items())
        },
        "entry_ports": dict(sorted(result.entry_ports.items())),
        "seeded": result.seeded,
        "kept_nodes": result.kept_nodes,
        "seed_fallback": result.seed_fallback,
    }


def map_result_from_dict(data: Any) -> MapResult:
    kind = "map-result"
    data = require_kind(data, kind)
    unknown = sorted(data.keys() - _MAP_RESULT_KEYS)
    if unknown:
        raise SerializationError(f"{kind}: unknown keys {unknown}")
    try:
        network = network_from_dict(_field(data, kind, "network", dict))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"{kind}: bad network: {exc}") from exc
    witnesses = {
        name: _turns(turns, kind, f"witness {name!r}")
        for name, turns in _field(data, kind, "witnesses", dict).items()
    }
    entry_ports = {}
    for name, port in _field(data, kind, "entry_ports", dict).items():
        if not isinstance(port, int) or isinstance(port, bool):
            raise SerializationError(f"{kind}: entry port {name!r} is not an int")
        entry_ports[name] = port
    fallback = data.get("seed_fallback")
    if fallback is not None and not isinstance(fallback, str):
        raise SerializationError(f"{kind}: seed_fallback is not a string")
    return MapResult(
        network=network,
        stats=probe_stats_from_dict(_field(data, kind, "stats", dict)),
        mapper_host=_field(data, kind, "mapper_host", str),
        search_depth=_field(data, kind, "search_depth", int),
        explorations=_field(data, kind, "explorations", int),
        merges=_field(data, kind, "merges", int),
        peak_model_nodes=_field(data, kind, "peak_model_nodes", int),
        witnesses=witnesses,
        entry_ports=entry_ports,
        seeded=_field(data, kind, "seeded", bool),
        kept_nodes=_field(data, kind, "kept_nodes", int),
        seed_fallback=fallback,
    )


# ---------------------------------------------------------------------------
# RouteTable
# ---------------------------------------------------------------------------

# A ``route-tables`` document (one generation) carries only what cannot be
# derived: each distinct channel (directed wire half) once, as ``[[node,
# port], [node, port]]``; each chain once, as its channels' numbers; each
# tail once, as ``[chain, last channel | null]``; and per host its one head
# channel and, per destination, the route's tail number. No turn is
# written: every turn is the out port minus the in port where two channels
# meet, and the decoder derives each one from the ports.

def _indices(values: Any, bound: int, where: str) -> None:
    """Refuse ``values`` unless each is an ``int`` (a ``bool`` is not) in
    ``range(bound)``: C-level passes, then the first offender named.
    ``where`` names the document kind and the place."""
    if not _INT.issuperset(map(type, values)) or (
        values and not 0 <= min(values) <= max(values) < bound
    ):
        bad = next(v for v in values if type(v) is not int or not 0 <= v < bound)
        raise SerializationError(f"{where}: malformed index {bad!r}")


def _list(value: Any, where: str) -> list:
    if type(value) is not list:
        raise SerializationError(f"{where} is not a list")
    return value


def _channels(value: Any) -> list[Traversal]:
    channels, kind = [], "route-tables"
    for item in _list(value, "route-tables: channels"):
        if type(item) is not list or len(item) != 2:
            raise SerializationError(f"route-tables: malformed channel {item!r}")
        channels.append(Traversal(_port_ref(item[0], kind), _port_ref(item[1], kind)))
    return channels


def _chains(
    rows: list, channels: list[Traversal], ids: list[int]
) -> tuple[list[Chain], list[tuple]]:
    """Every chain, its channels' numbers interned and its turns derived,
    refused unless each channel leaves the node the one before it enters;
    and per chain the node it starts at and the node it ends at (``None``
    for the empty chain)."""
    if not {list}.issuperset(map(type, rows)):
        raise SerializationError("route-tables: a chain is not a list")
    _indices(list(itertools.chain.from_iterable(rows)), len(channels), "route-tables: chains")
    chains, ends = [], []
    for at, row in enumerate(rows):
        hops = [channels[n] for n in row]
        for held, wanted in zip(hops, hops[1:]):
            if wanted.src.node != held.dst.node:
                raise SerializationError(
                    f"route-tables: chain {at} does not chain at {held.dst.node!r}"
                )
        turns = tuple([w.src.port - h.dst.port for h, w in zip(hops, hops[1:])])
        chains.append((tuple(map(ids.__getitem__, row)), turns))
        ends.append((hops[0].src.node, hops[-1].dst.node) if hops else (None, None))
    return chains, ends


def _tails(
    items: list, channels: list[Traversal], ends: list[tuple], ids: list[int]
) -> tuple[list[Pair], list, list]:
    """Every tail as its interned (chain, last channel) pair, refused unless
    its last channel leaves the node where its chain ends; and per tail the
    node it enters the fabric at and the node it ends at (both ``None`` for
    the empty tail)."""
    if not {list}.issuperset(map(type, items)) or not {2}.issuperset(map(len, items)):
        raise SerializationError("route-tables: a tail is not a [chain, last channel] pair")
    chain_col, last_col = list(map(itemgetter(0), items)), list(map(itemgetter(1), items))
    where = "route-tables: tails"
    _indices(chain_col, len(ends), where)
    _indices([last for last in last_col if last is not None], len(channels), where)
    pairs, enters, exits = [], [], []
    for at, (chain, last) in enumerate(zip(chain_col, last_col)):
        start, end = ends[chain]
        if last is not None:
            channel = channels[last]
            if end is not None and channel.src.node != end:
                raise SerializationError(
                    f"route-tables: tail {at}: last channel leaves {channel.src.node!r},"
                    f" its chain ends at {end!r}"
                )
            start = channel.src.node if start is None else start
            end, last = channel.dst.node, ids[last]
        pairs.append((ids[chain], last))
        enters.append(start)
        exits.append(end)
    return pairs, enters, exits


def _refused(host: str, dst: str, why: str) -> SerializationError:
    return SerializationError(f"route-tables: route {host!r} -> {dst!r}: {why}")


def _table(
    host: Any, doc: Any, channels: list[Traversal], enters: list, exits: list, ids: list[int]
) -> tuple[int | None, dict[str, int]]:
    """A table's head channel and its routes' interned tail numbers, refused
    unless the head leaves ``host`` and every tail enters where the head
    lands and ends at its destination (an empty tail: the head lands
    there). A few C-level passes over the routes; one per route only to
    name the first that fails."""
    where = f"route-tables: table {host!r}"
    if type(host) is not str or type(doc) is not dict:
        raise SerializationError(f"{where} is malformed")
    head, routes = _field(doc, where, "head", (int, type(None))), _field(doc, where, "routes", dict)
    if (head is None) != (not routes):
        raise SerializationError(f"{where}: head {head!r} over {len(routes)} routes")
    if head is None:
        return None, {}
    _indices([head], len(channels), where)
    if (leaves := channels[head].src.node) != host:
        raise SerializationError(f"{where}: head leaves {leaves!r}")
    tails, land = routes.values(), channels[head].dst.node
    _indices(tails, len(enters), where)
    if not {land, None}.issuperset(map(enters.__getitem__, tails)) or list(
        map(exits.__getitem__, tails)
    ) != list(routes):
        for dst, tail in routes.items():
            if enters[tail] not in (land, None):
                raise _refused(host, dst, f"tail {tail} enters at {enters[tail]!r}, not {land!r}")
            if (land if exits[tail] is None else exits[tail]) != dst:
                raise _refused(host, dst, f"tail {tail} ends at {exits[tail] or land!r}")
    return ids[head], dict(zip(routes, map(ids.__getitem__, tails)))


#: A generation and the id its holder names it by.
Held = tuple[str, RouteGeneration]


def route_tables_to_dict(tables: Mapping[str, RouteTable]) -> dict:
    """A whole generation of tables, keyed by source host."""
    generation = as_generation(tables)
    heads, numbered = generation.heads, generation.numbered
    return {
        "kind": "route-tables",
        "version": FORMAT_VERSION,
        "channels": [
            [[c.src.node, c.src.port], [c.dst.node, c.dst.port]]
            for c in generation.channels
        ],
        "chains": [list(row) for row, _ in generation.chains],
        "tails": [list(pair) for pair in generation.pairs],
        "tables": {
            host: {"head": heads.get(host), "routes": dict(sorted(numbered[host].items()))}
            for host in sorted(generation)
        },
    }


def route_tables_from_dict(data: Any, base: Held | None = None) -> RouteGeneration:
    """A generation over the document's own numbering, with one ``int``
    object per number: it keeps none of the document's. A ``route-delta``
    document is applied to ``base``, the generation it names, and refused
    without it."""
    if isinstance(data, dict) and data.get("kind") == "route-delta":
        return _applied(require_kind(data, "route-delta"), base)
    data = require_kind(data, "route-tables")
    channels = _channels(data.get("channels"))
    rows = _list(data.get("chains"), "route-tables: chains")
    items = _list(data.get("tails"), "route-tables: tails")
    ids = list(range(max(len(channels), len(rows), len(items))))
    chains, ends = _chains(rows, channels, ids)
    pairs, enters, exits = _tails(items, channels, ends, ids)
    heads: dict[str, int] = {}
    numbered: dict[str, dict[str, int]] = {}
    for host, doc in _field(data, "route-tables", "tables", dict).items():
        head, numbered[host] = _table(host, doc, channels, enters, exits, ids)
        if head is not None:
            heads[host] = head
    return RouteGeneration(channels, chains, pairs, heads, numbered)


# A ``route-delta`` document is a generation written against one its reader
# holds, when it keeps that generation's routes (``numbered``), tails and
# heads, channel for channel: ``base`` names the held generation, each
# entry of ``channels`` is a held channel's number or a new channel's ports
# (the new generation's channels, in its order), and ``chains`` lists
# ``[chain, channel numbers]`` for each chain whose channels are not the
# held chain's. Everything else is the held generation's, renumbered.

def route_delta_to_dict(tables: RouteGeneration, base: Held) -> dict | None:
    """``tables`` as a ``route-delta`` against ``base``, or None when it
    does not keep the held generation's routes, tails and heads (a
    generation compiled whole, or one in which a host's channel moved)."""
    held_id, held = base
    if (
        tables.numbered is not held.numbered
        or len(tables.chains) != len(held.chains)
        or len(tables.pairs) != len(held.pairs)
    ):
        return None
    number = {channel: k for k, channel in enumerate(held.channels)}
    back = [number.get(channel, -1) for channel in tables.channels]
    forth: dict[int | None, int | None] = dict.fromkeys(range(len(held.channels)), -1)
    forth.update((k, n) for n, k in enumerate(back) if k >= 0)
    forth[None] = None  # the empty tail's last channel
    if tables.heads != {host: forth[k] for host, k in held.heads.items()} or tables.pairs != [
        (chain, forth[last]) for chain, last in held.pairs
    ]:
        return None
    return {
        "kind": "route-delta",
        "version": DELTA_VERSION,
        "base": held_id,
        "channels": [
            k if k >= 0 else [[c.src.node, c.src.port], [c.dst.node, c.dst.port]]
            for k, c in zip(back, tables.channels)
        ],
        "chains": [
            [chain, list(row)]
            for chain, ((row, _), (was, _)) in enumerate(zip(tables.chains, held.chains))
            if tuple(map(back.__getitem__, row)) != was
        ],
    }


def _ends(channels: list[Traversal], row: tuple[int, ...] | list[int]) -> tuple | None:
    """The node a chain starts at and the node it ends at (None if empty)."""
    return (channels[row[0]].src.node, channels[row[-1]].dst.node) if row else None


def _applied(data: dict, base: Held | None) -> RouteGeneration:
    """The held generation with a ``route-delta`` applied: the version-4
    checks re-run on what the delta changes — each new channel's shape,
    each changed chain's continuity, and that it starts and ends where the
    held chain did — and everything else the held generation's, which
    passed them when it was decoded (docs/SERVICE.md)."""
    kind = "route-delta"
    if base is None:
        raise SerializationError(f"{kind}: no held generation to apply it to")
    held_id, held = base
    if data.get("base") != held_id:
        raise SerializationError(f"{kind}: made against {data.get('base')!r}, not {held_id!r}")
    # Per held channel number, its number here (-1: dropped).
    forth: dict[int | None, int | None] = dict.fromkeys(range(len(held.channels)), -1)
    channels: list[Traversal] = []
    for at, item in enumerate(_list(data.get("channels"), f"{kind}: channels")):
        if type(item) is int:
            if forth.get(item) != -1:
                raise SerializationError(
                    f"{kind}: channel {at}: {item!r} names no unlisted held channel"
                )
            forth[item] = at
            channels.append(held.channels[item])
        elif type(item) is list and len(item) == 2:
            channels.append(Traversal(_port_ref(item[0], kind), _port_ref(item[1], kind)))
        else:
            raise SerializationError(f"{kind}: malformed channel {item!r}")
    forth[None] = None  # the empty tail's last channel
    chains = list(held.chains)
    for item in _list(data.get("chains"), f"{kind}: chains"):
        if type(item) is not list or len(item) != 2 or type(item[1]) is not list:
            raise SerializationError(f"{kind}: a changed chain is not a [chain, channels] pair")
        at, row = item
        _indices([at], len(chains), f"{kind}: chains")
        _indices(row, len(channels), f"{kind}: chain {at}")
        if chains[at] is not held.chains[at]:
            raise SerializationError(f"{kind}: chain {at} is changed twice")
        hops = [channels[n] for n in row]
        for was, now in zip(hops, hops[1:]):
            if now.src.node != was.dst.node:
                raise SerializationError(f"{kind}: chain {at} does not chain at {was.dst.node!r}")
        if _ends(channels, row) != _ends(held.channels, held.chains[at][0]):
            raise SerializationError(f"{kind}: chain {at} does not run where the held one ran")
        chains[at] = tuple(row), tuple([w.src.port - h.dst.port for h, w in zip(hops, hops[1:])])
    respell = forth.__getitem__
    for at, (row, turns) in enumerate(held.chains):
        if chains[at] is held.chains[at] and (renumbered := tuple(map(respell, row))) != row:
            if -1 in renumbered:
                raise SerializationError(f"{kind}: chain {at} crosses a channel the delta drops")
            chains[at] = renumbered, turns
    lasts = list(map(forth.__getitem__, map(itemgetter(1), held.pairs)))
    pairs = list(zip(map(itemgetter(0), held.pairs), lasts))
    heads = {host: forth[k] for host, k in held.heads.items()}
    if -1 in heads.values() or -1 in lasts:
        raise SerializationError(f"{kind}: the delta drops a host's channel or a tail's last one")
    return RouteGeneration(channels, chains, pairs, heads, held.numbered)
