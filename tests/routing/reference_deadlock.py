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
