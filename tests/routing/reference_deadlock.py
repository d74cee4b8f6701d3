"""Reference Dally–Seitz check on networkx.

This is the formulation ``repro.routing.deadlock`` shipped before it moved
to numbered channels and one small successor set per channel: every
dependency of every route pushed into an ``nx.DiGraph`` keyed by
``(PortRef, PortRef)`` pairs, and networkx asked whether it is acyclic. It
is slow (about 300 ms on the full NOW's 9 900 routes) and kept only as the
oracle of ``test_deadlock_reference.py``, which checks each witness arc by
arc against this graph.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.routing.compile_routes import CompiledRoute
from repro.simulator.path_eval import Traversal
from repro.simulator.turns import Turns


def flat_route(
    src: str, dst: str, turns: Turns, traversals: tuple[Traversal, ...]
) -> CompiledRoute:
    """A route from its flat turn string and channel tuple, as the class
    took them before a route became head channel + shared tail. It keeps
    whatever it is given, consistent or not (a test may hand it channels
    without turns, or turns without channels), and owns its tail."""
    return CompiledRoute(
        src,
        dst,
        traversals[0] if traversals else None,
        turns[0] if turns else None,
        (tuple(traversals[1:]), tuple(turns[1:])),
    )


def channel_dependency_graph(routes: Iterable[CompiledRoute]) -> nx.DiGraph:
    """Build the Dally–Seitz channel dependency graph of a route set."""
    g = nx.DiGraph()
    for route in routes:
        trs = route.traversals
        for a, b in zip(trs, trs[1:]):
            g.add_edge((a.src, a.dst), (b.src, b.dst))
    return g


def reference_deadlock_free(routes: Iterable[CompiledRoute]) -> bool:
    return nx.is_directed_acyclic_graph(channel_dependency_graph(routes))
