"""Compiling node paths into relative-turn source routes.

Myrinet messages carry no addresses — just the turn string — so the final
routing artifact is, per destination, the sequence of relative turns the
source host's interface prepends to every message. The turn at each switch
is ``output port − input port`` (Section 2.2), which is invariant under the
per-switch port offsets the mapper cannot determine: routes compiled from a
map are byte-for-byte valid on the physical network.

"Where multiple edges are available between two switches, the algorithm has
the option of randomly choosing among them for load balance" — wire choice
among parallel cables is seeded-random here for exactly that reason.

Every host on a switch shares, per destination, one chain from that switch
on. So a route *is* its host's one channel plus a :data:`Tail` — the chain
from the entry switch to the destination — and a generation holds each
tail once, as it holds each channel once: when all hosts are leaves
(:mod:`repro.routing.paths`) each destination's in-tree of chains is
compiled once per state and every host on a switch gets that switch's one
tail object. Only a route that crosses a hop with parallel cables is
compiled hop by hop and owns its tail, which keeps the seeded draws in the
order a pair-by-pair compile makes them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.routing.paths import RoutingPaths
from repro.routing.updown import UpDownOrientation
from repro.simulator.path_eval import Traversal
from repro.simulator.turns import Turns
from repro.topology.model import Network

__all__ = [
    "CompiledRoute",
    "RouteTable",
    "Tail",
    "WireIndex",
    "build_wire_index",
    "channel_table",
    "compile_route_tables",
    "path_to_turns",
]

#: Per directed node pair, the parallel cables between the two nodes as
#: channels — each the directed wire half leaving the first node — sorted
#: by wire endpoint (the deterministic order the seeded RNG draws from).
#: One :class:`Traversal` per wire half: every route of a generation that
#: crosses the half holds this same frozen object.
WireIndex = dict[tuple[str, str], list[Traversal]]


#: What a route does after its first channel: the channels from the entry
#: switch on, and the turns at the switches where two of them meet (one
#: fewer). Shared, frozen, read-only: every route of a generation that
#: enters the fabric at one switch for one destination holds the same
#: object. Empty for a one-hop route (a host–host cable).
Tail = tuple[tuple[Traversal, ...], Turns]


class CompiledRoute(NamedTuple):
    """One source route: the turn string plus its wire-level trace, held
    as the source's own channel, the turn where that meets the tail
    (``None`` over an empty tail), and the shared tail. A named tuple:
    immutable and hashable, and a generation builds ~10 000 of them."""

    src: str
    dst: str
    head: Traversal
    first_turn: int | None
    tail: Tail

    @property
    def turns(self) -> Turns:
        if self.first_turn is None:
            return ()
        return (self.first_turn, *self.tail[1])

    @property
    def traversals(self) -> tuple[Traversal, ...]:
        return (self.head, *self.tail[0])

    @property
    def hops(self) -> int:
        return 1 + len(self.tail[0])


@dataclass(slots=True)
class RouteTable:
    """All routes out of one host, keyed by destination host."""

    host: str
    routes: dict[str, CompiledRoute] = field(default_factory=dict)

    def turns_to(self, dst: str) -> Turns:
        return self.routes[dst].turns

    def __len__(self) -> int:
        return len(self.routes)


def build_wire_index(net: Network) -> WireIndex:
    """Index the wire list by directed node pair (one O(E log E) pass).

    :func:`compile_route_tables` compiles O(hosts²) routes; the index makes
    each hop one dict lookup that already yields the channel object.
    """
    index: WireIndex = {}
    for wire in sorted(net.wires, key=lambda w: (w.a, w.b)):
        a, b = wire.a, wire.b
        if a.node == b.node:
            continue  # self-loop cables never carry a route hop
        index.setdefault((a.node, b.node), []).append(Traversal(a, b))
        index.setdefault((b.node, a.node), []).append(Traversal(b, a))
    return index


def channel_table(
    routes: Sequence[CompiledRoute],
) -> tuple[list[Traversal], list[tuple[list[int], Turns]], list[tuple[int, int]]]:
    """The distinct channels of ``routes`` numbered in first-seen order,
    the distinct tails likewise — each as its channels' numbers and its
    turns — and every route as ``(head channel, tail)`` numbers.

    A :class:`Traversal` or :data:`Tail` shared between routes (as
    :func:`compile_route_tables` and the wire decoder hand them out)
    resolves by identity; any other resolves by value, so a hand-built or
    copied route set numbers exactly as its interned equal does.
    ``routes`` must be a sequence the caller holds for the call: that is
    what keeps every ``id`` distinct while it is a key.
    """
    by_id: dict[int, int] = {}
    by_value: dict[Traversal, int] = {}
    channels: list[Traversal] = []

    def number(traversal: Traversal) -> int:
        """A channel not yet seen as this object: by value, then remembered."""
        found = by_value.get(traversal)
        if found is None:
            found = by_value[traversal] = len(channels)
            channels.append(traversal)
        by_id[id(traversal)] = found
        return found

    tail_by_id: dict[int, int] = {}
    tail_by_value: dict[tuple, int] = {}
    tails: list[tuple[list[int], Turns]] = []
    numbered: list[tuple[int, int]] = []
    seen = by_id.get
    for route in routes:
        head = seen(id(route.head))
        if head is None:
            head = number(route.head)
        tail = tail_by_id.get(id(route.tail))
        if tail is None:
            held, turns = route.tail
            row = []
            for traversal in held:
                found = seen(id(traversal))
                row.append(number(traversal) if found is None else found)
            tail = tail_by_value.setdefault((tuple(row), turns), len(tails))
            if tail == len(tails):
                tails.append((row, turns))
            tail_by_id[id(route.tail)] = tail
        numbered.append((head, tail))
    return channels, tails, numbered


def _candidates(wire_index: WireIndex, u: str, v: str) -> list[Traversal]:
    candidates = wire_index.get((u, v))
    if not candidates:
        raise ValueError(f"no wire between {u} and {v}")
    return candidates


def _compile(
    node_path: list[str], wire_index: WireIndex, rng: random.Random
) -> CompiledRoute:
    """Choose a channel per hop — random among parallel cables, for load
    balance — and read the turn at each switch off consecutive channels."""
    channels: list[Traversal] = []
    turns: list[int] = []
    hops = iter(node_path)
    u = next(hops)
    for v in hops:
        candidates = _candidates(wire_index, u, v)
        channel = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        if channels:
            turns.append(channel.src.port - channels[-1].dst.port)
        channels.append(channel)
        u = v
    tail = (tuple(channels[1:]), tuple(turns[1:]))
    return CompiledRoute(node_path[0], u, channels[0], turns[0] if turns else None, tail)


#: A compiled chain suffix: the nodes after the one it starts at and,
#: unless a hop of it has parallel cables to draw from (then ``None``),
#: its channels with the turns between them.
_Suffix = tuple[tuple[str, ...], Tail | None]


def _hop(u: str, v: str, suffix: _Suffix, wire_index: WireIndex) -> _Suffix:
    """``suffix`` with the hop ``u -> v`` put in front of it."""
    nodes, tail = suffix
    candidates = _candidates(wire_index, u, v)
    if tail is None or len(candidates) > 1:
        return (v, *nodes), None
    channel = candidates[0]
    channels, turns = tail
    if channels:
        turns = (channels[0].src.port - channel.dst.port, *turns)
    return (v, *nodes), ((channel, *channels), turns)


def _suffix(
    state: int,
    step: list[int],
    done: dict[int, _Suffix],
    names: list[str],
    wire_index: WireIndex,
) -> _Suffix:
    """The compiled suffix from ``state`` on, grown back from the first
    state of its chain that ``done`` already holds (at worst the goal)."""
    chain = []
    while state not in done:
        chain.append(state)
        state = step[state]
    suffix = done[state]
    for prev in reversed(chain):
        if names[prev] != names[state]:  # else the free turn in place
            suffix = _hop(names[prev], names[state], suffix, wire_index)
        done[prev] = suffix
        state = prev
    return suffix


def _in_tree_routes(
    tables: dict[str, RouteTable], paths: RoutingPaths, wire_index: WireIndex, rng: random.Random
) -> None:
    """Fill ``tables`` (all leaf hosts, sorted) source-major.

    All chains into one destination form an in-tree over the path states,
    so a chain is compiled once per state and every route entering at
    that state holds the one tail object (``trees``: per destination, the
    successor column and its state -> suffix memo). Once per entry switch,
    ``rows`` lists ``(dst, nodes, tail, tail's first out port)``; a host
    on that switch reads its whole table off the row, its first turn
    being that out port minus its own in port.
    A route over a hop with parallel cables is compiled on its own by
    :func:`_compile`, which keeps the seeded draws in route order.
    """
    names = paths.names
    trees: list[tuple[str, list[int], dict[int, _Suffix]]] = []
    for dst in tables:
        goal, step = paths.in_tree(dst)
        trees.append((dst, step, {goal: ((), ((), ()))}))
    rows: dict[str, list[tuple[str, tuple[str, ...], Tail | None, int]]] = {}
    for src, table in tables.items():
        switch = paths.leaf_switch[src]
        row = rows.get(switch)
        if row is None:
            entry = paths.index[switch]
            row = rows[switch] = []
            for dst, step, done in trees:
                if step[entry] >= 0:
                    nodes, tail = done.get(entry) or _suffix(
                        entry, step, done, names, wire_index
                    )
                    row.append((dst, nodes, tail, tail[0][0].src.port if tail else 0))
        head = _candidates(wire_index, src, switch)[0]  # a host's one wire
        in_port = head.dst.port
        routes = table.routes
        for dst, nodes, tail, out_port in row:
            if dst == src:
                continue
            if tail is None:
                routes[dst] = _compile([src, switch, *nodes], wire_index, rng)
            else:
                routes[dst] = CompiledRoute(src, dst, head, out_port - in_port, tail)


def path_to_turns(
    net: Network,
    node_path: list[str],
    *,
    orientation: UpDownOrientation | None = None,
    rng: random.Random | None = None,
    wire_index: WireIndex | None = None,
) -> CompiledRoute:
    """Compile a host-to-host node path into a relative-turn source route."""
    if len(node_path) < 2:
        raise ValueError("a route needs at least source and destination")
    if not (net.is_host(node_path[0]) and net.is_host(node_path[-1])):
        raise ValueError("routes run between hosts")
    return _compile(
        node_path,
        build_wire_index(net) if wire_index is None else wire_index,
        rng or random.Random(0),
    )


def compile_route_tables(
    net: Network,
    paths: RoutingPaths,
    *,
    orientation: UpDownOrientation | None = None,
    seed: int = 0,
) -> dict[str, RouteTable]:
    """Route tables for every host pair with a compliant path.

    With every host a leaf (the system model: one wire, to a switch) the
    routes come off the per-destination in-trees; a fabric with any other
    host is compiled pair by pair from ``paths.node_paths``.
    """
    rng = random.Random(seed)
    wire_index = build_wire_index(net)
    hosts = sorted(net.hosts)
    tables: dict[str, RouteTable] = {h: RouteTable(h) for h in hosts}
    if all(h in paths.leaf_switch for h in hosts):
        _in_tree_routes(tables, paths, wire_index, rng)
        return tables
    for src, dst, node_path in paths.node_paths(hosts, hosts):
        if src != dst:
            tables[src].routes[dst] = _compile(node_path, wire_index, rng)
    return tables
