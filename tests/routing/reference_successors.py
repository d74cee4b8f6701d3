"""Reference Dally–Seitz successor sets: one row per distinct tail.

This is ``repro.routing.deadlock`` as it was before a generation held each
chain once: every consecutive pair of every distinct tail's row read off
the row, then the arcs from each head channel into its routes' tails.
``reference_successors`` and ``reference_dependency_cycle`` are the
parent's ``_successors`` and ``dependency_cycle``, verbatim but for the
``reference_`` names; a generation's ``rows`` are now read off its chains
and pairs, so this oracle also checks that reading. Kept only as the
oracle of ``test_chain_successors.py``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.routing.compile_routes import CompiledRoute, RouteGeneration, RouteTable, channel_table
from tests.routing.reference_views import rows as tail_rows

Channel = tuple  # (PortRef src, PortRef dst)

_UNSEEN, _OPEN, _DONE = 0, 1, 2


def reference_successors(
    tables: Mapping[str, RouteTable] | Iterable[CompiledRoute],
) -> tuple[list, list[set[int]]]:
    """The numbered channels of the routes and, per channel, the channels
    some route wants next while holding it: the arcs inside each distinct
    tail, then the arcs from each head channel into its routes' tails (per
    host, in one pass over its table)."""
    routes: Iterable[tuple[int, Iterable[int]]]
    if isinstance(tables, RouteGeneration):
        channels, rows, heads = tables.channels, tail_rows(tables), tables.heads
        routes = ((heads[h], by_dst.values()) for h, by_dst in tables.numbered.items() if by_dst)
    else:
        channels, tails, numbered = channel_table(_flatten(tables))
        rows = [row for row, _ in tails]
        routes = ((head, (tail,)) for head, tail in numbered)
    successors: list[set] = [set() for _ in channels]
    for row in rows:
        for held, wanted in zip(row, row[1:]):
            successors[held].add(wanted)
    entered = [row[0] if row else None for row in rows]
    for head, into in routes:
        successors[head].update(map(entered.__getitem__, into))
        successors[head].discard(None)  # an empty tail: a host-host cable
    return channels, successors


def reference_dependency_cycle(
    tables: Mapping[str, RouteTable] | Iterable[CompiledRoute],
) -> list[Channel] | None:
    """A witness dependency cycle, or None when the routes are safe."""
    channels, successors = reference_successors(tables)

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
                    return [
                        (channels[c].src, channels[c].dst)
                        for c in chain[chain.index(wanted):]
                    ]
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
