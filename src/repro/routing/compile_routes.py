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
on. So a route *is* its host's one channel, a chain — from the entry switch
to the destination's switch — and the last channel, into the destination:
a generation holds each chain once, as it holds each channel once, and a
:data:`Tail` (what a route does after its first channel) as the pair of
its chain and its last channel. When all hosts are leaves
(:mod:`repro.routing.paths`) the hosts on one switch share one in-tree of
chains, so it is read and compiled once per state for each host-bearing
destination *switch* (24 on the full NOW, not one per each of its 100
hosts); the tail into any host on that switch is the chain plus that
host's channel. Every host on an entry switch gets that switch's one tail
per destination, and once the switch's row is numbered a host's table is
a copy of it. Only a route that crosses a hop with parallel cables is
compiled hop by hop and owns its tail, which keeps the seeded draws in the
order a pair-by-pair compile makes them.

The compiler's output is numbered as it is built: a
:class:`RouteGeneration` gives each channel, each distinct chain and each
distinct tail its number the first time a route uses it, over routes in
(host, destination) order, head before tail — the order the wire document
lists them in. The Dally–Seitz check reads its arcs off those
numbers, the codec writes them as they are, and a :class:`CompiledRoute`
(and its tail's channel tuple) is built only when a table is read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

from repro.routing.paths import RoutingPaths
from repro.simulator.path_eval import Traversal
from repro.simulator.turns import Turns
from repro.topology.model import Network

__all__ = [
    "CompiledRoute",
    "RouteGeneration",
    "RouteTable",
    "Tail",
    "WireIndex",
    "as_generation",
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
    immutable and hashable; a generation builds one when a table is read."""

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
    """All routes out of one host, keyed by destination host: a dict when
    built by hand, a read-only view of its :class:`RouteGeneration` when
    compiled or decoded."""

    host: str
    routes: Mapping[str, CompiledRoute] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.routes)


#: A chain, held once per generation: its channels' numbers and the turns
#: at the switches where two of them meet (one fewer; both empty for the
#: chain of a tail that is only its last channel).
Chain = tuple[tuple[int, ...], Turns]

#: A tail by number: its chain's number and its last channel's number
#: (``None`` when the chain is the whole tail, as in a one-hop route's
#: empty tail).
Pair = tuple[int, int | None]


def _spelled(channels: Sequence[Traversal], chains: Sequence[Chain], pair: Pair) -> Chain:
    """A tail's channel numbers and turns, in a chain's shape: its chain's
    channels, then its last channel; its chain's turns, then the turn into
    the last channel (its out port minus the chain's last in port)."""
    chain, last = pair
    row, turns = chains[chain]
    if row and last is not None:
        turns = (*turns, channels[last].src.port - channels[row[-1]].dst.port)
    return (row if last is None else (*row, last)), turns


class _Tails(dict[int, Tail]):
    """The tails of a generation by number, as the :data:`Tail` objects
    its routes share, each built from its chain and last channel when
    first read."""

    def __init__(self, channels: list[Traversal], chains: list[Chain], pairs: list[Pair]) -> None:
        super().__init__()
        self.parts = channels, chains, pairs

    def __missing__(self, number: int) -> Tail:
        channels, chains, pairs = self.parts
        row, turns = _spelled(channels, chains, pairs[number])
        tail = self[number] = (tuple([channels[n] for n in row]), turns)
        return tail


#: What every table of a generation reads its routes off: the channels, the
#: tails, each host's channel number, and the tail a route compiled on its
#: own holds instead of the shared one it equals, by (host, destination).
_Parts = tuple[list[Traversal], _Tails, dict[str, int], dict[tuple[str, str], Tail]]


class _Routes(Mapping[str, CompiledRoute]):
    """One host's routes, each built when asked for from its tail number:
    the host's channel, the tail, and the turn where the two meet — the
    tail's first out port minus the channel's in port."""

    __slots__ = ("_host", "_numbered", "_parts")

    def __init__(self, host: str, numbered: dict[str, int], parts: _Parts) -> None:
        self._host, self._numbered, self._parts = host, numbered, parts

    def __getitem__(self, dst: str) -> CompiledRoute:
        number = self._numbered[dst]
        channels, tails, heads, owned = self._parts
        head, tail = channels[heads[self._host]], owned.get((self._host, dst)) or tails[number]
        turn = tail[0][0].src.port - head.dst.port if tail[0] else None
        return CompiledRoute(self._host, dst, head, turn, tail)

    def __iter__(self) -> Iterator[str]:
        return iter(self._numbered)

    def __len__(self) -> int:
        return len(self._numbered)


class RouteGeneration(dict[str, RouteTable]):
    """One generation of route tables, keyed by source host, held by number
    (read-only: build a new generation rather than edit one):

    - ``channels``: every channel a route crosses, once;
    - ``chains``: every distinct chain once (:data:`Chain`);
    - ``pairs``: every distinct tail once, as its chain and its last
      channel (:data:`Pair`);
    - ``heads``: per host with routes, the number of its one channel;
    - ``numbered``: per host, per destination, the route's tail number.
      Its first turn is not held: it is the tail's out port minus the
      in port of the host's channel.

    Read off those when asked for, and listed once: ``turn_keys``, per
    tail the port its first channel leaves by (``None`` when empty) and
    its turns — two routes whose hosts' channels enter by one port send
    the same turn string exactly when their tails' keys are equal.

    Compiled, and written to the wire, in first-seen order over routes in
    (host, destination) order, head before tail; decoded, in the
    document's own order.
    """

    __slots__ = ("channels", "chains", "pairs", "heads", "numbered", "_tails", "_keys")

    def __init__(
        self,
        channels: list[Traversal],
        chains: list[Chain],
        pairs: list[Pair],
        heads: dict[str, int],
        numbered: dict[str, dict[str, int]],
        owned: dict[tuple[str, str], Tail] | None = None,
    ) -> None:
        self._tails = _Tails(channels, chains, pairs)
        parts = (channels, self._tails, heads, owned or {})
        super().__init__(
            (host, RouteTable(host, _Routes(host, routes, parts)))
            for host, routes in numbered.items()
        )
        self.channels, self.chains, self.pairs = channels, chains, pairs
        self.heads, self.numbered = heads, numbered
        self._keys: list[tuple[int | None, Turns]] | None = None

    @property
    def turn_keys(self) -> list[tuple[int | None, Turns]]:
        if self._keys is None:
            ports = [(channel.src.port, channel.dst.port) for channel in self.channels]
            self._keys = []
            for chain, last in self.pairs:
                row, turns = self.chains[chain]
                if row and last is not None:
                    turns = (*turns, ports[last][0] - ports[row[-1]][1])
                first = row[0] if row else last
                self._keys.append((None if first is None else ports[first][0], turns))
        return self._keys

    def in_port(self, host: str) -> int:
        """The port ``host``'s channel enters by — a route's first turn is
        its tail's out port minus this (0 for a host without routes)."""
        return self.channels[self.heads[host]].dst.port if host in self.heads else 0


class _Numbering:
    """A generation being numbered: channels, chains and tails, each a dict
    from value to number in the order they are first seen — a channel by
    identity and then as itself, a chain as its channels' numbers and its
    turns, a tail by identity and then as its (chain, last channel) pair —
    so a copy numbers as its interned equal does; per host its channel,
    per route its tail. An ``id`` is a key, so every channel and tail
    numbered must outlive the numbering."""

    __slots__ = ("channels", "chains", "pairs", "heads", "numbered", "owned", "_ids")

    def __init__(self, hosts: Sequence[str] = ()) -> None:
        self.channels: dict[Traversal, int] = {}
        self.chains: dict[Chain, int] = {}
        self.pairs: dict[Pair, int] = {}
        self.heads: dict[str, int] = {}
        self.numbered: dict[str, dict[str, int]] = {host: {} for host in hosts}
        self.owned: dict[tuple[str, str], Tail] = {}
        self._ids: dict[int, int] = {}

    def channel(self, traversal: Traversal) -> int:
        found = self._ids.get(id(traversal))
        if found is None:
            found = self._ids[id(traversal)] = self.channels.setdefault(
                traversal, len(self.channels)
            )
        return found

    def chain(self, channels: Sequence[Traversal], turns: Turns) -> int:
        """The number of the chain over ``channels``, numbering it and any
        channel of it not seen yet."""
        seen = self._ids.get
        row = tuple([n if (n := seen(id(t))) is not None else self.channel(t) for t in channels])
        return self.chains.setdefault((row, turns), len(self.chains))

    def tail(self, tail: Tail) -> int:
        found = self._ids.get(id(tail))
        if found is None:
            channels, turns = tail
            chain = self.chain(channels[:-1], turns[:-1])
            pair = (chain, self.channel(channels[-1]) if channels else None)
            found = self._ids[id(tail)] = self.pairs.setdefault(pair, len(self.pairs))
        return found

    def route(self, route: CompiledRoute) -> tuple[int, int]:
        return self.channel(route.head), self.tail(route.tail)

    def own(self, host: str, dst: str, route: CompiledRoute) -> None:
        """Number a route that keeps its own tail object; the first route
        of a host names the host's channel."""
        head, self.numbered[host][dst] = self.route(route)
        self.heads.setdefault(host, head)
        self.owned[host, dst] = route.tail

    def generation(self) -> RouteGeneration:
        channels, chains, pairs = list(self.channels), list(self.chains), list(self.pairs)
        return RouteGeneration(channels, chains, pairs, self.heads, self.numbered, self.owned)


def channel_table(
    routes: Sequence[CompiledRoute],
) -> tuple[list[Traversal], list[tuple[tuple[int, ...], Turns]], list[tuple[int, int]]]:
    """Number a hand-built or copied route set as the compiler numbers its
    own: the distinct channels in first-seen order, the distinct tails
    likewise — each as its channels' numbers and its turns — and every
    route as ``(head channel, tail)`` numbers. ``routes`` must be a
    sequence the caller holds for the call."""
    numbering = _Numbering()
    numbered = [numbering.route(route) for route in routes]
    channels, chains = list(numbering.channels), list(numbering.chains)
    return channels, [_spelled(channels, chains, pair) for pair in numbering.pairs], numbered


def as_generation(tables: Mapping[str, RouteTable]) -> RouteGeneration:
    """``tables`` as one generation: itself when it is one, else numbered
    as :func:`channel_table` numbers, over routes in (host, destination)
    order. Tables that do not read back equal — a host whose routes leave
    by two channels, a route whose first or last turn is not where its
    channels meet — have no numbered form: ValueError."""
    if isinstance(tables, RouteGeneration):
        return tables
    numbering = _Numbering(sorted(tables))
    for host in numbering.numbered:
        for dst, route in sorted(tables[host].routes.items()):
            numbering.own(host, dst, route)
    generation = numbering.generation()
    if generation != tables:
        raise ValueError("route tables with no numbered form")
    return generation


def build_wire_index(net: Network) -> WireIndex:
    """Index the wire list by directed node pair (one O(E log E) pass).

    :func:`compile_route_tables` compiles O(hosts²) routes; the index makes
    each hop one dict lookup that already yields the channel object.
    """
    index: WireIndex = {}
    for wire in sorted(net.wires, key=lambda w: (w.a.node, w.a.port, w.b.node, w.b.port)):
        a, b = wire.a, wire.b
        if a.node == b.node:
            continue  # self-loop cables never carry a route hop
        index.setdefault((a.node, b.node), []).append(Traversal(a, b))
        index.setdefault((b.node, a.node), []).append(Traversal(b, a))
    return index


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


def _follow(numbering: _Numbering, chain: list, channel: Traversal) -> int:
    """Number the tail that follows ``chain`` — ``[nodes, path, chain
    number]``, the path compiled into the first host on the destination
    switch — and ends by ``channel``, into a host on that switch. The path
    but its last channel is the chain, numbered the first time and kept in
    ``chain``; the tail is that chain and ``channel``."""
    if chain[2] is None:
        chain[2] = numbering.chain(chain[1][0][:-1], chain[1][1][:-1])
    # no other tail can equal this one, so the lookup only numbers it
    return numbering.pairs.setdefault((chain[2], numbering.channel(channel)), len(numbering.pairs))


def _switch_routes(
    numbering: _Numbering, paths: RoutingPaths, wire_index: WireIndex, rng: random.Random
) -> None:
    """Number every route (all hosts leaves, sorted) source-major.

    The leaves on one switch have one successor column but for the goal,
    so one in-tree serves them all: it is read off the switch's first host
    and compiled once per state as that host's chains (``trees``). Per
    entry switch, ``chains`` holds for each destination switch ``[nodes,
    tail, chain]``: the compiled path into that switch's first host and,
    from the first time a route uses it, the number of the chain — that
    path but its last channel. The tail into a host on the switch is the
    chain plus that host's channel. ``row`` maps each destination to its
    tail's number (-1 until a route first uses it): the switch's first
    host numbers every tail but its own, and every other host copies the
    row minus itself, the second one after numbering the first host's
    tail. No other tail can equal a shared one: it starts at its entry
    switch and ends at its destination, and each (entry switch,
    destination) has one row item. A row with a chain over a hop with
    parallel cables is read route by route, and such a route is compiled
    on its own by :func:`_compile`, which keeps the seeded draws in route
    order.
    """
    names, leaf_switch = paths.names, paths.leaf_switch
    on: dict[str, list[str]] = {}
    for host in numbering.numbered:
        on.setdefault(leaf_switch[host], []).append(host)
    trees: list[tuple[str, list[int], dict[int, _Suffix]]] = []
    for switch, hosts in on.items():
        goal, step = paths.in_tree(hosts[0])
        trees.append((switch, step, {goal: ((), ((), ()))}))
    into = {dst: _candidates(wire_index, leaf_switch[dst], dst)[0] for dst in numbering.numbered}
    rows: dict[str, tuple[dict[str, int], dict[str, list], bool]] = {}
    for src, routes in numbering.numbered.items():
        switch = leaf_switch[src]
        head = _candidates(wire_index, src, switch)[0]  # a host's one wire
        if switch not in rows:
            entry = paths.index[switch]
            chains: dict[str, list] = {
                to: [*(done.get(entry) or _suffix(entry, step, done, names, wire_index)), None]
                for to, step, done in trees
                if step[entry] >= 0
            }
            row = dict.fromkeys((d for d in numbering.numbered if leaf_switch[d] in chains), -1)
            rows[switch] = row, chains, all(chain[1] is not None for chain in chains.values())
        row, chains, shared = rows[switch]
        if shared and src != (first := on[switch][0]):  # a later host on a shared row
            numbering.heads[src] = numbering.channel(head)
            if row[first] < 0:
                row[first] = _follow(numbering, chains[switch], into[first])
            routes.update(row)
            del routes[src]
            continue
        for dst, number in row.items():
            if dst == src:
                continue
            chain = chains[leaf_switch[dst]]
            if chain[1] is None:
                nodes = [src, switch, *chain[0][:-1], dst]
                numbering.own(src, dst, _compile(nodes, wire_index, rng))
                continue
            if src not in numbering.heads:
                numbering.heads[src] = numbering.channel(head)
            if number < 0:
                number = row[dst] = _follow(numbering, chain, into[dst])
            routes[dst] = number


def path_to_turns(
    net: Network,
    node_path: list[str],
    *,
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
    seed: int = 0,
) -> RouteGeneration:
    """Route tables for every host pair with a compliant path, numbered.

    With every host a leaf (the system model: one wire, to a switch) the
    routes come off the per-destination in-trees; a fabric with any other
    host is compiled pair by pair from ``paths.node_paths``.
    """
    rng = random.Random(seed)
    wire_index = build_wire_index(net)
    hosts = sorted(net.hosts)
    numbering = _Numbering(hosts)
    if all(h in paths.leaf_switch for h in hosts):
        _switch_routes(numbering, paths, wire_index, rng)
    else:
        for src, dst, node_path in paths.node_paths(hosts, hosts):
            if src != dst:
                numbering.own(src, dst, _compile(node_path, wire_index, rng))
    return numbering.generation()
