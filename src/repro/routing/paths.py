"""All-pairs shortest UP*/DOWN*-compliant paths.

"We use the Floyd-Warshall all-pairs shortest-paths algorithm to compute
compliant paths between all hosts" (Section 5.5). A compliant path follows
zero or more up edges, then zero or more down edges, never turning from a
down edge back onto an up edge.

Primary method — Floyd–Warshall on the *phase graph*: each node appears in
two states, (node, UP) "still allowed to go up" and (node, DOWN) "committed
to going down". Up edges connect UP states; down edges connect UP→DOWN and
DOWN→DOWN. The forbidden down→up transition simply has no arc. The min-plus
recurrence runs vectorized with numpy over the 2N×2N distance matrix, with
a successor matrix for path reconstruction.

Cross-check method — per-source BFS over the same phase graph
(:func:`bfs_updown_lengths`), used by the test suite to validate the FW
distances independently.

Parallel wires: the phase graph works on nodes; wire selection (including
the paper's random choice among parallel wires for load balance) happens in
:mod:`repro.routing.compile_routes`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.routing.updown import UpDownOrientation
from repro.topology.model import Network

__all__ = [
    "PhaseGraph",
    "RoutingPaths",
    "all_pairs_updown_paths",
    "bfs_updown_lengths",
    "build_phase_graph",
]

_INF = np.iinfo(np.int32).max // 4


@dataclass(slots=True)
class PhaseGraph:
    """The up/down phase adjacency, built once and shared across queries.

    Both the Floyd–Warshall sweep and every per-root BFS need the same
    oriented adjacency; previously each call re-derived it from the wire
    list (O(E) per root). ``topology_epoch`` records the network state the
    graph was built against, so consumers can detect staleness the same
    way the probe-evaluation trie does.
    """

    nodes: list[str]
    index: dict[str, int]
    up_adj: list[list[int]]
    down_adj: list[list[int]]
    topology_epoch: int

    def current_for(self, net: Network) -> bool:
        return self.topology_epoch == net.topology_epoch


def build_phase_graph(net: Network, orientation: UpDownOrientation) -> PhaseGraph:
    """Derive the phase-graph adjacency from the wire list (one O(E) pass)."""
    nodes = sorted(net.nodes)
    index = {name: i for i, name in enumerate(nodes)}
    n = len(nodes)
    up_adj: list[list[int]] = [[] for _ in range(n)]
    down_adj: list[list[int]] = [[] for _ in range(n)]
    up_seen: list[set[int]] = [set() for _ in range(n)]
    down_seen: list[set[int]] = [set() for _ in range(n)]
    for wire in net.wires:
        u, v = wire.nodes
        if u == v:
            continue  # self-loop cables are useless for routing
        for x, y in ((u, v), (v, u)):
            ix, iy = index[x], index[y]
            adj, seen = (
                (up_adj, up_seen) if orientation.is_up(x, y) else (down_adj, down_seen)
            )
            if iy not in seen[ix]:  # parallel cables add no new arcs
                seen[ix].add(iy)
                adj[ix].append(iy)
    return PhaseGraph(
        nodes=nodes,
        index=index,
        up_adj=up_adj,
        down_adj=down_adj,
        topology_epoch=net.topology_epoch,
    )


def _graph_for(
    net: Network, orientation: UpDownOrientation, graph: PhaseGraph | None
) -> PhaseGraph:
    if graph is not None and graph.current_for(net):
        return graph
    return build_phase_graph(net, orientation)


@dataclass(slots=True)
class RoutingPaths:
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


def all_pairs_updown_paths(
    net: Network,
    orientation: UpDownOrientation,
    *,
    graph: PhaseGraph | None = None,
) -> RoutingPaths:
    """Floyd–Warshall over the up/down phase graph (vectorized min-plus).

    Pass a prebuilt (and still current) :class:`PhaseGraph` to skip the
    adjacency derivation; a stale graph is silently rebuilt.
    """
    graph = _graph_for(net, orientation, graph)
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
    return RoutingPaths(nodes=nodes, index=index, dist=dist, succ=succ)


def bfs_updown_lengths(
    net: Network,
    orientation: UpDownOrientation,
    source: str,
    *,
    graph: PhaseGraph | None = None,
) -> dict[str, int]:
    """Independent single-source compliant-path lengths (for cross-checks).

    ``graph`` reuses one adjacency across the per-root calls — without it
    every root re-derives the same O(E) structure.
    """
    graph = _graph_for(net, orientation, graph)
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
