"""Reference UP*/DOWN* paths and root choice: every node a state.

This is the formulation ``repro.routing.paths`` and ``repro.routing.updown``
shipped before the routing layer learned that a host with one wire is a
leaf: Floyd–Warshall over all ``2N × 2N`` ``(node, UP/DOWN)`` states, one
successor-chain walk of the full matrix per route, and ``pick_root`` as one
networkx BFS per host. The bodies are the parent's, verbatim but for the
``reference_`` names. It is slow (about 20 ms of sweep on the full NOW
where the core sweep takes 3) and kept only as the oracle of
``test_paths_reference.py``, which requires equal roots, distances, node
paths *and tie-breaks* — hence equal tables, insertion order and seeded
draws included — from the core-only sweep and the compiled in-trees.

``bfs_updown_lengths`` is the other cross-check: per-source BFS over the
same phase graph, validating the Floyd–Warshall distances independently
(``test_paths_compile.py``, ``tests/property/test_routing_properties.py``).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import networkx as nx
import numpy as np

from repro.routing.compile_routes import RouteTable, _compile, build_wire_index
from repro.routing.paths import PhaseGraph, build_phase_graph
from repro.routing.updown import UpDownOrientation
from repro.topology.model import Network

_INF = np.iinfo(np.int32).max // 4


@dataclass(slots=True)
class ReferenceRoutingPaths:
    """Distances and reconstructable paths between all node pairs."""

    nodes: list[str]
    index: dict[str, int]
    dist: "np.ndarray"  # (2N, 2N) phase-graph distances
    succ: "np.ndarray"  # successor state for path reconstruction

    def distance(self, src: str, dst: str) -> int | None:
        """Length of the shortest compliant path, or None if unreachable."""
        n = len(self.nodes)
        s = self.index[src]  # start in the UP phase
        best = min(self.dist[s, self.index[dst]], self.dist[s, self.index[dst] + n])
        return None if best >= _INF else int(best)

    def node_path(self, src: str, dst: str) -> list[str] | None:
        """The node sequence of one shortest compliant path."""
        for _, _, path in self.node_paths([src], [dst]):
            return path
        return None

    def node_paths(
        self, sources: Sequence[str], targets: Sequence[str]
    ) -> Iterator[tuple[str, str, list[str]]]:
        """``(src, dst, node path)`` for every pair joined by a compliant
        path, source-major in the orders given.

        The distance row of each source and the successor column of each
        target state are read out as plain lists once, so walking a whole
        generation of routes pays no per-step numpy scalar read.
        """
        nodes = self.nodes
        n = len(nodes)
        ups = [self.index[t] for t in targets]
        succ_up = self.succ[:, ups].T.tolist()
        succ_down = self.succ[:, [d + n for d in ups]].T.tolist()
        for src in sources:
            s = self.index[src]  # start in the UP phase
            row = self.dist[s].tolist()
            for j, dst in enumerate(targets):
                target, column = ups[j], succ_up[j]
                if row[target + n] < row[target]:
                    target, column = target + n, succ_down[j]
                if row[target] >= _INF:
                    continue
                path = [src]
                state = last = s
                steps = 0
                while state != target:
                    state = column[state]
                    if state < 0:
                        break  # defensive: broken successor chain
                    node = state - n if state >= n else state
                    if node != last:  # the free UP->DOWN hop stays in place
                        path.append(nodes[node])
                        last = node
                    steps += 1
                    if steps > 2 * n + 2:
                        raise RuntimeError("successor chain did not converge")
                else:
                    yield src, dst, path


def reference_all_pairs_updown_paths(
    net: Network, orientation: UpDownOrientation
) -> ReferenceRoutingPaths:
    """Floyd–Warshall over the up/down phase graph (vectorized min-plus)."""
    graph = build_phase_graph(net, orientation)
    nodes = graph.nodes
    index = graph.index
    n = len(nodes)
    m = 2 * n  # states: [0, n) = UP phase, [n, 2n) = DOWN phase
    dist = np.full((m, m), _INF, dtype=np.int32)
    succ = np.full((m, m), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    # Entering the DOWN phase without moving is free: (u, UP) -> (u, DOWN).
    for i in range(n):
        dist[i, i + n] = 0
        succ[i, i + n] = i + n

    def arc(a: int, b: int) -> None:
        if 1 < dist[a, b]:
            dist[a, b] = 1
            succ[a, b] = b

    for x in range(n):
        for y in graph.up_adj[x]:
            arc(x, y)          # UP -> UP
        for y in graph.down_adj[x]:
            arc(x, y + n)      # UP -> DOWN (the single allowed turn)
            arc(x + n, y + n)  # DOWN -> DOWN

    # Min-plus Floyd–Warshall with numpy row/column broadcasting.
    for k in range(m):
        via = dist[:, k, None] + dist[None, k, :]
        better = via < dist
        if better.any():
            dist[better] = via[better]
            succ[better] = np.broadcast_to(succ[:, k, None], succ.shape)[better]
    return ReferenceRoutingPaths(nodes=nodes, index=index, dist=dist, succ=succ)


def bfs_updown_lengths(
    net: Network,
    orientation: UpDownOrientation,
    source: str,
    *,
    graph: PhaseGraph | None = None,
) -> dict[str, int]:
    """Independent single-source compliant-path lengths (for cross-checks).

    ``graph`` shares one adjacency across the per-root calls.
    """
    if graph is None:
        graph = build_phase_graph(net, orientation)
    nodes = graph.nodes
    index = graph.index
    up_adj, down_adj = graph.up_adj, graph.down_adj
    # BFS over states (node, phase).
    start = (index[source], 0)
    seen = {start: 0}
    queue: deque[tuple[tuple[int, int], int]] = deque([(start, 0)])
    best: dict[int, int] = {index[source]: 0}
    while queue:
        (i, phase), d = queue.popleft()
        moves: list[tuple[int, int]] = []
        if phase == 0:
            moves += [(j, 0) for j in up_adj[i]]
            moves += [(j, 1) for j in down_adj[i]]
        else:
            moves += [(j, 1) for j in down_adj[i]]
        for state in moves:
            if state not in seen:
                seen[state] = d + 1
                best[state[0]] = min(best.get(state[0], _INF), d + 1)
                queue.append((state, d + 1))
    return {nodes[i]: d for i, d in best.items()}


def reference_pick_root(net: Network, *, ignore_utility: bool = True) -> str:
    """The switch maximizing distance from all (non-utility) hosts.

    Distance to the host set is the minimum hop distance to any considered
    host; ties break on the larger *total* distance, then on name (for
    determinism). This "picks a natural root of the network and allows
    packets to flow up to the least common ancestor of a source and
    destination".
    """
    hosts = [
        h
        for h in net.hosts
        if not (ignore_utility and net.meta(h).get("utility"))
    ]
    if not hosts:
        hosts = list(net.hosts)
    if not hosts:
        raise ValueError("network has no hosts to route between")
    g = nx.Graph(net.to_networkx())
    dist_to_hosts: dict[str, list[int]] = {s: [] for s in net.switches}
    for h in hosts:
        lengths = nx.single_source_shortest_path_length(g, h)
        for s in net.switches:
            if s in lengths:
                dist_to_hosts[s].append(lengths[s])
    best: tuple[int, int] | None = None
    best_switch: str | None = None
    for s in sorted(net.switches):
        ds = dist_to_hosts[s]
        if not ds:
            continue
        key = (min(ds), sum(ds))
        if best is None or key > best:
            best = key
            best_switch = s
    if best_switch is None:
        raise ValueError("no switch is reachable from the hosts")
    return best_switch


def reference_route_tables(
    net: Network, paths: ReferenceRoutingPaths, *, seed: int = 0
) -> dict[str, RouteTable]:
    """The parent's ``compile_route_tables``: every route compiled hop by
    hop from its own successor-chain walk, source-major."""
    rng = random.Random(seed)
    wire_index = build_wire_index(net)
    hosts = sorted(net.hosts)
    tables: dict[str, RouteTable] = {h: RouteTable(h) for h in hosts}
    for src, dst, node_path in paths.node_paths(hosts, hosts):
        if src != dst:
            tables[src].routes[dst] = _compile(node_path, wire_index, rng)
    return tables
