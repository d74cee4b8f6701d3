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

A caller that keeps a :class:`RouteMemo` across maps gets the next
generation patched from the last one it committed: only the (entry
switch, destination switch) cells whose chain changed are compiled again,
and the channel numbering is replayed over integers, equal to a full
compile's (docs/ALGORITHM.md §6).
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.routing.paths import RoutingPaths
from repro.simulator.path_eval import Traversal
from repro.simulator.turns import Turns
from repro.topology.model import Network

__all__ = [
    "CompiledRoute",
    "RouteGeneration",
    "RouteMemo",
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
    document's own order. A generation patched from another keeps that
    one's keys and the set of tails whose key moved (:meth:`moved_tails`).
    """

    __slots__ = (
        "channels", "chains", "pairs", "heads", "numbered",
        "_tails", "_keys", "_since", "_basis", "__weakref__",
    )

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
        self._since: tuple[weakref.ref, frozenset[int]] | None = None
        self._basis: _Basis | None = None

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

    def moved_tails(self, previous: RouteGeneration) -> frozenset[int] | set[int]:
        """The tails whose turn key differs from the key of ``previous``'s
        tail of the same number: the set the patch kept when this
        generation was patched from ``previous``, else read key by key."""
        if self._since is not None and self._since[0]() is previous:
            return self._since[1]
        pairs = zip(self.turn_keys, previous.turn_keys)
        return {tail for tail, (key, old) in enumerate(pairs) if key != old}

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
    for wire in sorted(net.wires, key=lambda w: (w.a, w.b)):
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
    memo: RouteMemo | None = None,
) -> RouteGeneration:
    """Route tables for every host pair with a compliant path, numbered.

    With every host a leaf (the system model: one wire, to a switch) the
    routes come off the per-destination in-trees; a fabric with any other
    host is compiled pair by pair from ``paths.node_paths``. With a
    ``memo`` the generation is patched from the one the memo holds when
    that is exact, and compiled whole otherwise; the memo itself moves
    only on :meth:`RouteMemo.commit`.
    """
    rng = random.Random(seed)
    wire_index = build_wire_index(net)
    hosts = sorted(net.hosts)
    leaves = all(h in paths.leaf_switch for h in hosts)
    patched = memo._patch(paths, wire_index) if memo is not None and leaves else None
    if isinstance(patched, RouteGeneration):
        return patched
    numbering = _Numbering(hosts)
    if leaves:
        _switch_routes(numbering, paths, wire_index, rng)
    else:
        for src, dst, node_path in paths.node_paths(hosts, hosts):
            if src != dst:
                numbering.own(src, dst, _compile(node_path, wire_index, rng))
    generation = numbering.generation()
    if memo is not None:
        unfit = None if leaves else "a host that is not a leaf"
        reason = unfit if patched is None else patched
        generation._basis = _Basis(reason, len(generation.chains), paths, wire_index, unfit, None)
    return generation


class _Shape:
    """What no patch changes in a generation's numbering (step 1 of
    docs/ALGORITHM.md §6), read off one compiled whole: per tail its
    chain and its last channel's id, per host its channel's id, per
    host-bearing switch its UP state (``entries``) and its first host's
    column (``goals``), the chain of each non-empty cell by (entry, goal)
    position (-1: none), and a number per node."""

    __slots__ = ("tail_chain", "tail_last", "heads", "entries", "goals", "cells", "nodes", "node")

    def __init__(
        self, paths: RoutingPaths, generation: RouteGeneration, ends: list[tuple[str, str]]
    ) -> None:
        self.tail_chain = np.array([chain for chain, _ in generation.pairs], dtype=np.intp)
        self.tail_last = np.array([last for _, last in generation.pairs], dtype=np.intp)
        self.heads = generation.heads
        on: dict[str, str] = {}
        for host in generation.numbered:
            on.setdefault(paths.leaf_switch[host], host)
        where = {switch: k for k, switch in enumerate(on)}
        self.entries = [paths.index[switch] for switch in on]
        self.goals = [paths.index[host] for host in on.values()]
        self.cells = np.full((len(on), len(on)), -1, dtype=np.intp)
        for chain, (row, _) in enumerate(generation.chains):
            if row:
                self.cells[where[ends[row[0]][0]], where[ends[row[-1]][1]]] = chain
        self.nodes = {name: k for k, name in enumerate(dict.fromkeys(paths.names))}
        self.node = np.array([self.nodes[name] for name in paths.names], dtype=np.intp)


class _Numbers:
    """A generation's numbering over stable channel ids, one per directed
    node pair (``ids`` / ``ends``: shared by every generation patched
    from one compiled whole, and only ever grown). ``order`` is the id of
    each channel number. ``flat`` is the compile's numbering walk in ids
    — per host its channel, then per tail it numbers first its chain's
    ids when the chain is new and its last channel's id — in which chain
    ``c`` is spelled from ``at[c]`` over ``span[c]`` ids."""

    __slots__ = ("shape", "ids", "ends", "order", "flat", "at", "span")

    def __init__(
        self, shape: _Shape, ids: dict[tuple[str, str], int], ends: list[tuple[str, str]],
        order: list[int], flat: np.ndarray, at: np.ndarray, span: np.ndarray,
    ) -> None:
        self.shape, self.ids, self.ends = shape, ids, ends
        self.order, self.flat, self.at, self.span = order, flat, at, span

    @classmethod
    def of(cls, generation: RouteGeneration, paths: RoutingPaths) -> _Numbers:
        """The numbers of a generation compiled whole, its channel numbers
        taken as the ids."""
        ends = [(c.src.node, c.dst.node) for c in generation.channels]
        chains, pairs, heads = generation.chains, generation.pairs, generation.heads
        flat: list[int] = []
        at: list[int] = []
        tail = end = 0
        for host, routes in generation.numbered.items():
            if host not in heads:
                continue  # a host with no route
            flat.append(heads[host])
            end = max(end, max(routes.values()) + 1)
            for chain, last in pairs[tail:end]:
                if chain == len(at):
                    at.append(len(flat))
                    flat += chains[chain][0]
                flat.append(last)
            tail = max(tail, end)
        return cls(
            _Shape(paths, generation, ends),
            {end: k for k, end in enumerate(ends)},
            ends,
            list(range(len(ends))),
            np.array(flat, dtype=np.intp),
            np.array(at, dtype=np.intp),
            np.array([len(row) for row, _ in chains], dtype=np.intp),
        )

    def id(self, channel: Traversal) -> int:
        end = (channel.src.node, channel.dst.node)
        found = self.ids.get(end)
        if found is None:
            found = self.ids[end] = len(self.ends)
            self.ends.append(end)
        return found


class _Basis:
    """What patching a generation reads besides the generation: why it was
    compiled whole (``fallback``, None when patched), how many chains its
    compile built, its paths, why it cannot be patched from (``unfit``),
    and either its numbers or — compiled whole — the wire index it was
    compiled on, until a patch first reads them."""

    __slots__ = ("fallback", "cells_run", "paths", "wire_index", "unfit", "numbers")

    def __init__(
        self, fallback: str | None, cells_run: int, paths: RoutingPaths,
        wire_index: WireIndex | None, unfit: str | None, numbers: _Numbers | None,
    ) -> None:
        self.fallback, self.cells_run, self.paths = fallback, cells_run, paths
        self.wire_index, self.unfit, self.numbers = wire_index, unfit, numbers


def _parallel(wire_index: WireIndex) -> bool:
    return any(len(candidates) > 1 for candidates in wire_index.values())


class RouteMemo:
    """Route work one owner keeps from one map to the next: the last
    generation it committed and what patching it reads.

    :func:`compile_route_tables` with ``memo=`` patches that generation
    when the new map keeps the state numbering, the host → switch
    assignment and every cell's reachability and has no parallel cables,
    and compiles whole otherwise; either way the result equals a full
    compile's in every numbered field (docs/ALGORITHM.md §6). The compile
    only reads the memo; :meth:`commit` moves it to a generation the
    caller has adopted. ``fallback`` names why the committed generation
    was compiled whole (None when it was patched) and ``cells_run``
    counts the chains its compile built: the cells a patch recompiled,
    every chain on a full compile.
    """

    __slots__ = ("fallback", "cells_run", "_generation", "_basis")

    def __init__(self) -> None:
        self.fallback: str | None = None
        self.cells_run = 0
        self._generation: RouteGeneration | None = None
        self._basis: _Basis | None = None

    @property
    def generation(self) -> RouteGeneration | None:
        """The generation last committed (None before the first)."""
        return self._generation

    def commit(self, generation: RouteGeneration) -> None:
        """Hold ``generation``, compiled with this memo, for the next patch.
        The memo takes the generation's basis, so a generation the memo
        has moved on from keeps no paths alive."""
        basis, generation._basis = generation._basis, None
        if basis is None:
            raise ValueError("a generation compiled without a route memo or committed already")
        self._generation, self._basis = generation, basis
        self.fallback, self.cells_run = basis.fallback, basis.cells_run

    def _patch(self, paths: RoutingPaths, wire_index: WireIndex) -> RouteGeneration | str:
        """The held generation patched onto ``paths``, or why it cannot be."""
        old, basis = self._generation, self._basis
        if old is None or basis is None:
            return "first call"
        unfit = basis.unfit
        if unfit is None and basis.numbers is None and _parallel(basis.wire_index or {}):
            unfit = "parallel cables"
        if unfit is not None:
            return unfit
        if _parallel(wire_index):
            return "parallel cables"
        prev = basis.paths
        if paths.names != prev.names:
            return "different state numbering"
        if paths.leaf_switch != prev.leaf_switch:
            return "a host changed switch"
        numbers = basis.numbers or _Numbers.of(old, prev)
        shape = numbers.shape
        succ, before = paths.succ[:, shape.goals], prev.succ[:, shape.goals]
        if ((succ[shape.entries] >= 0) != (before[shape.entries] >= 0)).any():
            return "a cell's reachability changed"
        changed = [
            k for k, was in zip(numbers.order, old.channels)
            if (now := wire_index.get(numbers.ends[k])) is None
            or now[0].src.port != was.src.port
            or now[0].dst.port != was.dst.port
        ]
        dirty = _dirty_cells(shape, numbers.ends, succ, before, changed)
        return _patched(old, numbers, dirty, paths, wire_index, changed)


def _dirty_cells(
    shape: _Shape, ends: list[tuple[str, str]], succ: np.ndarray, before: np.ndarray,
    changed: list[int],
) -> list[tuple[int, int]]:
    """The (entry, goal) positions whose chain a patch must compile again:
    those whose new walk of successor states reaches a state whose
    successor changed, or whose hop to it crosses a channel that changed
    value (the hop into the goal host is not part of a chain)."""
    states = succ.shape[0]
    inner = (succ >= 0) & (succ < states)
    bad = succ != before
    if changed:
        hot = np.zeros((len(shape.nodes), len(shape.nodes)), dtype=bool)
        for u, v in map(ends.__getitem__, changed):
            hot[shape.nodes[u], shape.nodes[v]] = True
        bad |= inner & hot[shape.node[:states, None], shape.node[np.where(inner, succ, 0)]]
    step = np.where(inner, succ, states)
    walk = np.zeros((states + 1, succ.shape[1]), dtype=bool)
    walk[:states] = bad
    columns = np.arange(succ.shape[1])
    while True:
        grown = bad | walk[step, columns]
        if (grown == bad).all():
            break
        walk[:states] = bad = grown
    rows, cols = np.nonzero(walk[shape.entries])
    return list(zip(rows.tolist(), cols.tolist()))


def _replay(
    numbers: _Numbers, rows: dict[int, list[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The walk with each chain in ``rows`` spelled by its new ids, the
    chains' ``at`` and ``span`` in it, and its ids in first-seen order:
    the channel numbering."""
    flat, at, span = numbers.flat, numbers.at, numbers.span
    if not rows:
        return flat, at, span, numbers.order
    pieces, start = [], 0
    grow = np.zeros(len(span), dtype=np.intp)
    for chain in sorted(rows):
        pieces += [flat[start : at[chain]], np.array(rows[chain], dtype=np.intp)]
        start = at[chain] + span[chain]
        grow[chain] = len(rows[chain]) - span[chain]
    flat = np.concatenate([*pieces, flat[start:]])
    order = list(dict.fromkeys(flat.tolist()))
    return flat, at + np.cumsum(grow) - grow, span + grow, order


def _patched(
    old: RouteGeneration, numbers: _Numbers, dirty: list[tuple[int, int]],
    paths: RoutingPaths, wire_index: WireIndex, changed: list[int],
) -> RouteGeneration:
    """``old`` with the chains of the ``dirty`` cells compiled again on
    ``paths`` and every channel renumbered by replaying the walk."""
    shape, names, ends = numbers.shape, paths.names, numbers.ends
    rows: dict[int, tuple[list[int], Turns]] = {}
    trees: dict[int, tuple[list[int], dict[int, _Suffix]]] = {}
    for entry, goal in dirty:
        chain = int(shape.cells[entry, goal])
        if chain < 0:
            continue  # a switch into itself: the empty chain
        if goal not in trees:
            column = shape.goals[goal]
            trees[goal] = paths.succ[:, column].tolist(), {column: ((), ((), ()))}
        step, done = trees[goal]
        state = shape.entries[entry]
        channels, hops = (done.get(state) or _suffix(state, step, done, names, wire_index))[1]
        rows[chain] = [numbers.id(c) for c in channels[:-1]], hops[:-1]
    flat, at, span, order = _replay(numbers, {c: ids for c, (ids, _) in rows.items()})
    channels = [wire_index[ends[k]][0] for k in order]
    number = np.zeros(len(ends), dtype=np.intp)
    number[order] = np.arange(len(order))
    was = np.full(len(ends), -1, dtype=np.intp)
    was[numbers.order] = np.arange(len(numbers.order))
    moved_ids = number != was
    # Respell only the chains with a recompiled or renumbered channel, the
    # tails whose last channel was renumbered, and the heads.
    chains, pairs = list(old.chains), list(old.pairs)
    counts = np.concatenate(([0], np.cumsum(moved_ids[flat])))
    respelled = set(np.flatnonzero(counts[at + span] - counts[at]).tolist()).union(rows)
    if respelled:
        spelled, starts, spans = number[flat].tolist(), at.tolist(), span.tolist()
        for chain in respelled:
            row = tuple(spelled[starts[chain] : starts[chain] + spans[chain]])
            chains[chain] = row, (rows[chain][1] if chain in rows else chains[chain][1])
    lasts = np.flatnonzero(moved_ids[shape.tail_last])
    for tail, last in zip(lasts.tolist(), number[shape.tail_last[lasts]].tolist()):
        pairs[tail] = pairs[tail][0], last
    renumber = number.tolist()
    heads = {host: renumber[k] for host, k in shape.heads.items()}
    generation = RouteGeneration(channels, chains, pairs, heads, old.numbered)
    keys = list(old.turn_keys)
    hot_ids = np.zeros(len(ends), dtype=bool)
    hot_ids[changed] = True
    hot_chains = np.zeros(len(chains), dtype=bool)
    hot_chains[list(rows)] = True
    touched = hot_ids[shape.tail_last] | hot_chains[shape.tail_chain]
    moved = []
    for tail in np.flatnonzero(touched).tolist():
        row, hops = _spelled(channels, chains, pairs[tail])
        key = (channels[row[0]].src.port if row else None, hops)
        if key != keys[tail]:
            keys[tail] = key
            moved.append(tail)
    generation._keys, generation._since = keys, (weakref.ref(old), frozenset(moved))
    renumbered = _Numbers(shape, numbers.ids, ends, order, flat, at, span)
    generation._basis = _Basis(None, len(rows), paths, None, None, renumbered)
    return generation
