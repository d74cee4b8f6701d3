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

A ``route-tables`` document is a
:class:`~repro.routing.compile_routes.RouteGeneration` written by number:
the encoder writes the generation's own channel, tail and route numbers
(a hand-built table set is numbered first, by
:func:`~repro.routing.compile_routes.as_generation`), and the decoder
builds a generation over the document's numbers, each tail split into its
interned chain and its last channel — no route object until a table is
read.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.instrumentation import PhaseProfile
from repro.core.mapper import GrowthSample, MapResult
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
    "route_tables_from_dict",
    "route_tables_to_dict",
]

#: Version stamp of every document this module emits; bump on any shape
#: change so a mixed-version server/worker pair fails loudly, not subtly.
FORMAT_VERSION = 3


class SerializationError(ValueError):
    """A payload does not describe the object it claims to."""


def require_kind(data: Any, kind: str) -> dict:
    """The kind/version envelope check every ``*_from_dict`` runs first."""
    if not isinstance(data, dict):
        raise SerializationError(f"{kind}: expected an object, got {type(data).__name__}")
    if data.get("kind") != kind:
        raise SerializationError(f"{kind}: wrong or missing kind {data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"{kind}: unsupported version {data.get('version')!r}"
        )
    return data


def _field(data: Mapping, kind: str, name: str, types: type | tuple) -> Any:
    try:
        value = data[name]
    except KeyError:
        raise SerializationError(f"{kind}: missing field {name!r}") from None
    if not isinstance(value, types):
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

def map_result_to_dict(result: MapResult) -> dict:
    profile = None
    if result.profile is not None:
        profile = {
            name: [calls, wall]
            for name, (calls, wall) in result.profile.phases.items()
        }
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
        "growth": [
            [g.exploration, g.n_nodes, g.n_edges, g.n_frontier]
            for g in result.growth
        ],
        "switch_names": sorted(
            [vid, name] for vid, name in result.switch_names.items()
        ),
        "profile": profile,
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
    try:
        network = network_from_dict(_field(data, kind, "network", dict))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"{kind}: bad network: {exc}") from exc
    growth = []
    for item in _field(data, kind, "growth", list):
        if not isinstance(item, list) or len(item) != 4:
            raise SerializationError(f"{kind}: malformed growth sample {item!r}")
        growth.append(GrowthSample(*item))
    switch_names: dict[int, str] = {}
    for item in _field(data, kind, "switch_names", list):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], int)
            or not isinstance(item[1], str)
        ):
            raise SerializationError(f"{kind}: malformed switch name {item!r}")
        switch_names[item[0]] = item[1]
    profile = None
    if data.get("profile") is not None:
        raw = _field(data, kind, "profile", dict)
        phases: dict[str, tuple[int, float]] = {}
        for name, pair in raw.items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise SerializationError(f"{kind}: malformed profile row {name!r}")
            phases[name] = (int(pair[0]), float(pair[1]))
        profile = PhaseProfile(phases=phases)
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
        growth=growth,
        switch_names=switch_names,
        profile=profile,
        witnesses=witnesses,
        entry_ports=entry_ports,
        seeded=bool(data.get("seeded", False)),
        kept_nodes=_field(data, kind, "kept_nodes", int),
        seed_fallback=fallback,
    )


# ---------------------------------------------------------------------------
# RouteTable
# ---------------------------------------------------------------------------

# A ``route-tables`` document (one generation) lists each distinct channel
# (directed wire half) once, as ``[[node, port], [node, port]]``, and each
# distinct tail (the chain from an entry switch to a destination) once, as
# ``[channel numbers, turns between them]``. The ``route-table`` documents
# nested in it carry no lists of their own: a route is ``[head channel,
# tail, first turn]`` by position in the generation's lists.

def _channels(value: Any, kind: str) -> list[tuple]:
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


def _tails(value: Any, kind: str, channels: list[tuple]) -> tuple[list, list, list]:
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


def _route(
    doc: Any, host: str, dst: str, channels: list[tuple], tails: list[tuple]
) -> tuple[int, int]:
    """One route's head and tail numbers, refused unless its turns and
    channels tell one story at the one place its tail has not already
    proven it: the head channel leaves ``host`` and meets the tail's first
    channel under the stated first turn, and the tail (or, over an empty
    tail, the head) enters ``dst``."""
    if not isinstance(doc, list) or len(doc) != 3:
        raise _refused(host, dst, "not a [head, tail, first turn] triple")
    head, tail, turn = doc
    if type(head) is not int or not 0 <= head < len(channels):
        raise _refused(host, dst, f"malformed channel index {head!r}")
    if type(tail) is not int or not 0 <= tail < len(tails):
        raise _refused(host, dst, f"malformed tail index {tail!r}")
    src_node, _, node, in_port, _, _ = channels[head]
    junction, tail = tails[tail]
    if src_node != host:
        raise _refused(host, dst, f"first channel leaves {src_node!r}")
    if junction is None:
        if turn is not None:
            raise _refused(host, dst, f"first turn {turn!r} over an empty tail")
    else:
        entry, first_out, last = junction
        if type(turn) is not int:
            raise _refused(host, dst, f"malformed first turn {turn!r}")
        if entry != node or first_out - in_port != turn:
            raise _refused(host, dst, f"turns and channels disagree at {node!r}")
        node = last
    if node != dst:
        raise _refused(host, dst, f"last channel enters {node!r}")
    return head, tail


def _refused(host: str, dst: str, why: str) -> SerializationError:
    return SerializationError(f"route-table: route {host!r} -> {dst!r}: {why}")


def _table(
    data: dict, channels: list[tuple], tails: list[tuple]
) -> tuple[str, int | None, dict[str, int]]:
    """A table's host, its one head channel and its routes' tail numbers."""
    kind = "route-table"
    host = _field(data, kind, "host", str)
    first, routes = None, {}
    for dst, doc in _field(data, kind, "routes", dict).items():
        head, routes[dst] = _route(doc, host, dst, channels, tails)
        if first is not None and head != first:
            raise _refused(host, dst, f"leaves by channel {head}, its table by {first}")
        first = head
    return host, first, routes


def route_tables_to_dict(tables: Mapping[str, RouteTable]) -> dict:
    """A whole generation of tables, keyed by source host."""
    generation = as_generation(tables)
    outs = generation.outs

    def routes(host: str) -> dict:
        head, in_port = generation.heads.get(host), generation.in_port(host)
        return {
            dst: [head, tail, None if (out := outs[tail]) is None else out - in_port]
            for dst, tail in sorted(generation.numbered[host].items())
        }

    return {
        "kind": "route-tables",
        "version": FORMAT_VERSION,
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
                "version": FORMAT_VERSION,
                "host": host,
                "routes": routes(host),
            }
            for host in sorted(generation)
        },
    }


def route_tables_from_dict(data: Any) -> RouteGeneration:
    kind = "route-tables"
    data = require_kind(data, kind)
    channels = _channels(data.get("channels"), kind)
    tails, chains, pairs = _tails(data.get("tails"), kind, channels)
    heads: dict[str, int] = {}
    numbered: dict[str, dict[str, int]] = {}
    for host, doc in _field(data, kind, "tables", dict).items():
        claimed, head, numbered[host] = _table(
            require_kind(doc, "route-table"), channels, tails
        )
        if claimed != host:
            raise SerializationError(
                f"{kind}: table keyed {host!r} claims host {claimed!r}"
            )
        if head is not None:
            heads[host] = head
    return RouteGeneration([channel[4] for channel in channels], chains, pairs, heads, numbered)
