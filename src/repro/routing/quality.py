"""Route-set quality metrics (Section 5.5's qualitative claims, measured).

"The goodness of UP*/DOWN* routes is known to be highly topology-dependent.
Two common effects are increased congestion about the root and the creation
of locally dominant switches." This module quantifies both:

- per-directed-channel load assuming uniform all-pairs traffic (each route
  contributes one unit to every channel it crosses);
- the *root congestion factor*: mean load on the chosen root's channels
  over the mean load elsewhere;
- switch utilization: which switches carry no routes at all (dominant
  switches reappear here when relabeling is disabled);
- path-length inflation over unrestricted shortest paths.

Also the load-balance knob: "where multiple edges are available between two
switches, the algorithm has the option of randomly choosing among them" —
:func:`parallel_wire_spread` reports how evenly parallel cables are used.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from statistics import fmean

import networkx as nx

from repro.routing.compile_routes import RouteTable
from repro.routing.updown import UpDownOrientation
from repro.topology.model import Network

__all__ = ["RouteQuality", "analyze_routes", "parallel_wire_spread"]


@dataclass(slots=True)
class RouteQuality:
    """Aggregate quality metrics of a route set on a map."""

    n_routes: int
    channel_loads: dict = field(repr=False, default_factory=dict)
    max_channel_load: int = 0
    mean_channel_load: float = 0.0
    root_congestion_factor: float = 0.0
    unused_switches: list[str] = field(default_factory=list)
    mean_path_inflation: float = 1.0
    max_path_inflation: float = 1.0


def analyze_routes(
    net: Network,
    tables: dict[str, RouteTable],
    orientation: UpDownOrientation | None = None,
) -> RouteQuality:
    """Compute quality metrics for ``tables`` over the map ``net``."""
    loads: Counter = Counter()
    switch_hits: Counter = Counter()
    inflations: list[float] = []
    shortest = dict(nx.all_pairs_shortest_path_length(nx.Graph(net.to_networkx())))
    n_routes = 0
    for table in tables.values():
        for dst, route in table.routes.items():
            n_routes += 1
            for tr in route.traversals:
                loads[tr] += 1
                if net.is_switch(tr.src.node):
                    switch_hits[tr.src.node] += 1
                if net.is_switch(tr.dst.node):
                    switch_hits[tr.dst.node] += 1
            base = shortest.get(table.host, {}).get(dst)
            if base:
                inflations.append(route.hops / base)

    unused = sorted(s for s in net.switches if switch_hits[s] == 0)
    quality = RouteQuality(
        n_routes=n_routes,
        channel_loads=dict(loads),
        max_channel_load=max(loads.values(), default=0),
        mean_channel_load=fmean(loads.values()) if loads else 0.0,
        unused_switches=unused,
        mean_path_inflation=fmean(inflations) if inflations else 1.0,
        max_path_inflation=max(inflations, default=1.0),
    )

    if orientation is not None and loads:
        root = orientation.root
        root_loads = [
            load
            for (src, dst), load in loads.items()
            if root in (src.node, dst.node)
        ]
        other_loads = [
            load
            for (src, dst), load in loads.items()
            if root not in (src.node, dst.node)
        ]
        if root_loads and other_loads:
            quality.root_congestion_factor = fmean(root_loads) / fmean(
                other_loads
            )
    return quality


def parallel_wire_spread(
    net: Network, tables: dict[str, RouteTable]
) -> dict[tuple[str, str], list[int]]:
    """Per switch pair with parallel cables: route count on each cable.

    A perfectly load-balanced compiler spreads routes near-evenly; a
    deterministic one piles everything on one cable. Returned lists are
    sorted descending, one entry per parallel wire.
    """
    # Group wires by unordered endpoint pair with multiplicity > 1.
    groups: dict[tuple[str, str], list] = {}
    for wire in net.wires:
        u, v = sorted(wire.nodes)
        if u == v or not (net.is_switch(u) and net.is_switch(v)):
            continue
        groups.setdefault((u, v), []).append(wire)
    groups = {pair: ws for pair, ws in groups.items() if len(ws) > 1}
    if not groups:
        return {}

    wire_use: Counter = Counter()
    for table in tables.values():
        for route in table.routes.values():
            for tr in route.traversals:
                wire_use[tuple(sorted(tr))] += 1

    spread: dict[tuple[str, str], list[int]] = {}
    for pair, wires in groups.items():
        counts = []
        for wire in wires:
            a, b = sorted((wire.a, wire.b))
            counts.append(wire_use.get((a, b), 0))
        spread[pair] = sorted(counts, reverse=True)
    return spread
