"""LASH: layered shortest-path routing — the UP*/DOWN* alternative.

Section 6, second open problem: "a second area for investigation is finding
more robust strategies for deriving deadlock-free routes than UP*/DOWN*.
UP*/DOWN* is unpredictable" — its routes inflate on unlucky topologies and
congest unevenly. The paper also points at Dally–Seitz virtual channels:
"switches contain buffering to allow multiple virtual channels to be
multiplexed onto physical links while maintaining independence amongst the
channels" — but notes the known constructions did not cover *arbitrary,
reconfigurable* networks.

LASH (LAyered SHortest-path routing) is the later literature's answer, and
it fits this code base exactly:

- every host pair routes on a true shortest path (no turn restriction, so
  zero path inflation by construction);
- each route is assigned to a *virtual layer* (virtual channel index);
  a route may join a layer only if adding its channel dependencies keeps
  that layer's Dally–Seitz dependency graph acyclic;
- deadlock freedom holds per layer, and layers never interact (a packet
  stays in its layer end to end).

The trade is hardware: the layer count is the number of virtual channels
the switches must provide. On the NOW topologies it is small (1-2); the
comparison experiment measures it against UP*/DOWN*'s path inflation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import networkx as nx

from repro.routing.compile_routes import (
    CompiledRoute,
    RouteTable,
    build_wire_index,
    path_to_turns,
)
from repro.topology.model import Network

#: The shuffle seed of the route insertion order.
SEED = 0
#: Virtual layers LASH may open before it gives up on a topology.
MAX_LAYERS = 8

__all__ = ["LashRouting", "lash_route_tables"]


@dataclass(slots=True)
class LashRouting:
    """LASH output: per-host tables plus the layer (VC) assignment."""

    tables: dict[str, RouteTable]
    layer_of: dict[tuple[str, str], int]  # (src, dst) -> layer index
    n_layers: int

    def layer_routes(self, layer: int) -> list[CompiledRoute]:
        return [
            self.tables[src].routes[dst]
            for (src, dst), l in self.layer_of.items()
            if l == layer
        ]


def lash_route_tables(net: Network) -> LashRouting:
    """Compute LASH routes for all host pairs.

    Routes are considered in a deterministic shuffled order (seeded) — the
    classic heuristic, since insertion order affects how many layers are
    needed. Raises :class:`ValueError` if :data:`MAX_LAYERS` is exceeded
    (never observed below dozens of switches).
    """
    rng = random.Random(SEED)
    g = nx.Graph(net.to_networkx())
    hosts = sorted(net.hosts)
    pairs = [
        (s, d) for s in hosts for d in hosts if s != d and nx.has_path(g, s, d)
    ]
    rng.shuffle(pairs)

    sp = dict(nx.all_pairs_shortest_path(g))
    wire_index = build_wire_index(net)
    routes: dict[str, dict[str, CompiledRoute]] = {h: {} for h in hosts}
    layer_of: dict[tuple[str, str], int] = {}
    # Per-layer dependency graphs, extended incrementally.
    layer_cdg: list[nx.DiGraph] = []

    for src, dst in pairs:
        node_path = sp[src][dst]
        route = path_to_turns(net, node_path, rng=rng, wire_index=wire_index)
        deps = list(_dependencies(route))
        placed = False
        for layer_idx, cdg in enumerate(layer_cdg):
            if _stays_acyclic(cdg, deps):
                cdg.add_edges_from(deps)
                layer_of[(src, dst)] = layer_idx
                placed = True
                break
        if not placed:
            if len(layer_cdg) >= MAX_LAYERS:
                raise ValueError(
                    f"LASH needs more than {MAX_LAYERS} layers on this "
                    "topology"
                )
            cdg = nx.DiGraph()
            cdg.add_edges_from(deps)
            layer_cdg.append(cdg)
            layer_of[(src, dst)] = len(layer_cdg) - 1
        routes[src][dst] = route

    return LashRouting(
        tables={h: RouteTable(h, table) for h, table in routes.items()},
        layer_of=layer_of,
        n_layers=len(layer_cdg),
    )


def _dependencies(route: CompiledRoute):
    trs = route.traversals
    return zip(trs, trs[1:])


def _stays_acyclic(cdg: nx.DiGraph, deps) -> bool:
    """Would adding ``deps`` keep the dependency graph acyclic?

    Tentative insertion + cycle check + rollback of what we added.
    """
    added_edges = []
    added_nodes = []
    for u, v in deps:
        if u not in cdg:
            added_nodes.append(u)
        if v not in cdg:
            added_nodes.append(v)
        if not cdg.has_edge(u, v):
            added_edges.append((u, v))
    cdg.add_edges_from(deps)
    ok = nx.is_directed_acyclic_graph(cdg)
    # Always roll back; on success the caller re-adds, keeping the
    # decision and the mutation in one place.
    cdg.remove_edges_from(added_edges)
    cdg.remove_nodes_from(added_nodes)
    return ok
