"""Deadlock-freedom verification via channel dependency graphs.

Dally and Seitz: a wormhole-routed network is deadlock-free iff the channel
dependency graph of its routing function is acyclic. Channels here are
directed wire halves ``(wire-end -> wire-end)``; every consecutive channel
pair used by any route adds a dependency arc. UP*/DOWN* guarantees
acyclicity by construction (each route is a monotone climb then a monotone
descent in the label order), and the test suite verifies that theorem holds
for every orientation we produce; this module provides the *checker*, which
also works on arbitrary route sets (e.g. to show that unrestricted shortest
paths on a cyclic topology are NOT deadlock-free — the motivating contrast).

A fabric has few channels (two per wire) and many routes, so the graph is
kept as one small successor set per numbered channel. A
:class:`~repro.routing.compile_routes.RouteGeneration` is numbered already:
every consecutive pair inside every *distinct chain* is read off its row
once, as two integers; each distinct tail adds the one arc from its
chain's last channel into its own last channel; and each route adds the
arc from its head channel into its tail — per host one ``set.update`` over
its table's tail numbers, so the 9 900 head arcs of the full NOW cost 100
calls, not a Python step each. Any other route set — hand-built, copied,
one LASH layer — is numbered first, the same way, by
:func:`~repro.routing.compile_routes.channel_table`, and each of its tails
is read as a chain with no last channel.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.routing.compile_routes import CompiledRoute, RouteGeneration, RouteTable, channel_table
from repro.simulator.path_eval import Traversal

__all__ = [
    "dependency_cycle",
    "routes_deadlock_free",
]

_UNSEEN, _OPEN, _DONE = 0, 1, 2


def routes_deadlock_free(
    tables: Mapping[str, RouteTable] | Iterable[CompiledRoute],
) -> bool:
    """True iff the channel dependency graph of the routes is acyclic."""
    return dependency_cycle(tables) is None


def _successors(
    tables: Mapping[str, RouteTable] | Iterable[CompiledRoute],
) -> tuple[list, list[set[int]]]:
    """The numbered channels of the routes and, per channel, the channels
    some route wants next while holding it: the arcs inside each distinct
    chain, then the arc from each distinct tail's chain into its last
    channel, then the arcs from each head channel into its routes' tails
    (per host, in one pass over its table)."""
    routes: Iterable[tuple[int, Iterable[int]]]
    if isinstance(tables, RouteGeneration):
        channels, chains, pairs, heads = tables.channels, tables.chains, tables.pairs, tables.heads
        routes = ((heads[h], by_dst.values()) for h, by_dst in tables.numbered.items() if by_dst)
    else:
        channels, chains, numbered = channel_table(_flatten(tables))
        pairs = [(tail, None) for tail in range(len(chains))]
        routes = ((head, (tail,)) for head, tail in numbered)
    successors: list[set] = [set() for _ in channels]
    for row, _ in chains:
        for held, wanted in zip(row, row[1:]):
            successors[held].add(wanted)
    entered = []
    for chain, last in pairs:
        row = chains[chain][0]
        if row and last is not None:
            successors[row[-1]].add(last)
        entered.append(row[0] if row else last)  # None: an empty tail, a host-host cable
    for head, into in routes:
        successors[head].update(map(entered.__getitem__, into))
        successors[head].discard(None)
    return channels, successors


def dependency_cycle(
    tables: Mapping[str, RouteTable] | Iterable[CompiledRoute],
) -> list[Traversal] | None:
    """A witness dependency cycle, or None when the routes are safe."""
    channels, successors = _successors(tables)

    # Iterative three-colour depth-first search: an arc into a channel
    # that is still open closes a cycle through the open chain.
    colour = [_UNSEEN] * len(channels)
    for root in range(len(channels)):
        if colour[root] != _UNSEEN:
            continue
        colour[root] = _OPEN
        chain = [root]
        pending = [iter(successors[root])]
        while chain:
            for wanted in pending[-1]:
                if colour[wanted] == _OPEN:
                    return [channels[c] for c in chain[chain.index(wanted):]]
                if colour[wanted] == _UNSEEN:
                    colour[wanted] = _OPEN
                    chain.append(wanted)
                    pending.append(iter(successors[wanted]))
                    break
            else:
                colour[chain.pop()] = _DONE
                pending.pop()
    return None


def _flatten(
    tables: Mapping[str, RouteTable] | Iterable[CompiledRoute],
) -> list[CompiledRoute]:
    if isinstance(tables, Mapping):
        return [r for t in tables.values() for r in t.routes.values()]
    return list(tables)
