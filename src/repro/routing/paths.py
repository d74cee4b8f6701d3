"""All-pairs shortest UP*/DOWN*-compliant paths.

"We use the Floyd-Warshall all-pairs shortest-paths algorithm to compute
compliant paths between all hosts" (Section 5.5). A compliant path follows
zero or more up edges, then zero or more down edges, never turning from a
down edge back onto an up edge.

Primary method — Floyd–Warshall on the *phase graph*: each node appears in
two states, (node, UP) "still allowed to go up" and (node, DOWN) "committed
to going down". Up edges connect UP states; down edges connect UP→DOWN and
DOWN→DOWN. The forbidden down→up transition simply has no arc. The min-plus
recurrence runs vectorized with numpy, with a successor matrix for path
reconstruction.

Hosts are leaves: a host has one wire, and when that wire is an up arc to a
switch no compliant path passes *through* the host. Such a host is a column
of the matrix and a derived row, never a state the sweep visits, so the
recurrence runs over the switch core only (80 × 180 instead of 280 × 280 on
the full NOW) and still breaks every tie exactly as the full sweep would —
see :func:`all_pairs_updown_paths`. The state numbering stays inside this
module; :meth:`RoutingPaths.in_tree` hands the route compiler opaque states.

Cross-check method — per-source BFS over the same phase graph
(``bfs_updown_lengths`` in ``tests/routing/reference_paths.py``), used by
the test suite to validate the FW distances independently.

Parallel wires: the phase graph works on nodes; wire selection (including
the paper's random choice among parallel wires for load balance) happens in
:mod:`repro.routing.compile_routes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.routing.updown import UpDownOrientation
from repro.topology.model import Network

__all__ = [
    "PhaseGraph",
    "RoutingPaths",
    "all_pairs_updown_paths",
    "build_phase_graph",
]

_INF = np.iinfo(np.int32).max // 4

#: The sweep runs in int16 while there are fewer states than this: a
#: shortest path has fewer arcs than there are states, and two of these
#: infinities add up without overflow. ``RoutingPaths.dist`` is int32 with
#: ``_INF`` either way.
_INF16 = np.iinfo(np.int16).max // 2


@dataclass(slots=True)
class PhaseGraph:
    """The up/down phase adjacency over sorted node names."""

    nodes: list[str]
    index: dict[str, int]
    up_adj: list[list[int]]
    down_adj: list[list[int]]


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
    return PhaseGraph(nodes=nodes, index=index, up_adj=up_adj, down_adj=down_adj)


@dataclass(slots=True)
class RoutingPaths:
    """Distances and reconstructable paths between all node pairs.

    Only *core* nodes are states. Row ``c`` is ``(core[c], UP)`` and row
    ``c + len(core)`` is ``(core[c], DOWN)``; the columns are those states
    followed by one DOWN column per leaf host. A leaf's own row is derived:
    one up hop to its switch, then the switch's UP row.
    """

    core: list[str]  # sorted: every node that is not a leaf host
    names: list[str]  # the node of each column
    index: dict[str, int]  # core node -> its UP state; leaf -> its column
    leaf_switch: dict[str, str]  # leaf host -> the switch it hangs off
    dist: "np.ndarray"  # (2C, 2C + L) phase-graph distances
    succ: "np.ndarray"  # successor state for path reconstruction

    def _entry(self, src: str) -> tuple[int, list[str]]:
        """The row paths out of ``src`` are read from, and the nodes
        walked to get onto it."""
        switch = self.leaf_switch.get(src)
        if switch is None:
            return self.index[src], [src]
        return self.index[switch], [src, switch]

    def _columns(self, dst: str) -> tuple[int, ...]:
        """``dst``'s states as targets, preferred first (UP wins a tie)."""
        column = self.index[dst]
        if dst in self.leaf_switch:
            return (column,)  # only the host itself is ever at (dst, UP)
        return column, column + len(self.core)

    def node_paths(
        self, sources: Sequence[str], targets: Sequence[str]
    ) -> Iterator[tuple[str, str, list[str]]]:
        """``(src, dst, node path)`` for every pair joined by a compliant
        path, source-major in the orders given.

        The distance row of each source and the successor column of each
        target state are read out as plain lists once, so walking a whole
        generation of routes pays no per-step numpy scalar read.
        """
        names = self.names
        columns = [self._columns(t) for t in targets]
        succ = {
            column: self.succ[:, column].tolist()
            for column in {c for pair in columns for c in pair}
        }
        for src in sources:
            row, prefix = self._entry(src)
            dist = self.dist[row].tolist()
            for dst, candidates in zip(targets, columns):
                if src == dst:
                    yield src, dst, [src]
                    continue
                target = min(candidates, key=dist.__getitem__)
                if dist[target] >= _INF:
                    continue
                step = succ[target]
                path = list(prefix)
                state = row
                for _ in range(len(names) + 2):
                    if state == target:
                        yield src, dst, path
                        break
                    state = step[state]
                    if state < 0:
                        break  # defensive: broken successor chain
                    if names[state] != path[-1]:  # the free UP->DOWN hop stays in place
                        path.append(names[state])
                else:
                    raise RuntimeError("successor chain did not converge")

    def in_tree(self, dst: str) -> tuple[int, list[int]]:
        """The successor chains into leaf host ``dst``, all at once: the
        goal state, and per core state the next state towards it (negative
        where ``dst`` is unreachable). Enter at ``index[switch]``, name a
        state with ``names``; consecutive states with one name are the
        free UP->DOWN hop in place.

        The sweep's ``k`` runs over core states only, and the columns of
        two leaves on one switch start equal but for the goal, so they end
        equal but for the goal: the chains into every host on a switch are
        one in-tree, and the compiler reads it once per switch, off its
        first host.
        """
        goal = self.index[dst]
        return goal, self.succ[:, goal].tolist()


def all_pairs_updown_paths(
    net: Network, orientation: UpDownOrientation
) -> RoutingPaths:
    """Floyd–Warshall over the core of the up/down phase graph (vectorized
    min-plus).

    A *leaf host* — a host whose only arc is the up arc to a switch — is
    left out of the sweep: nothing but the host itself reaches its UP state
    and nothing leaves its DOWN state, so as an intermediate ``k`` it never
    wins a strict improvement, and the core rows evolve exactly as they
    would in the full matrix, tie-breaks included. Any other host (cabled
    to a host, unattached, oriented above its switch) is simply core.
    """
    graph = build_phase_graph(net, orientation)
    nodes, up_adj, down_adj = graph.nodes, graph.up_adj, graph.down_adj
    leaf_switch = {
        name: nodes[up_adj[i][0]]
        for i, name in enumerate(nodes)
        if net.is_host(name)
        and len(up_adj[i]) == 1
        and not down_adj[i]
        and net.is_switch(nodes[up_adj[i][0]])
    }
    core = [name for name in nodes if name not in leaf_switch]
    c = len(core)
    m = 2 * c  # states: [0, c) = UP phase, [c, 2c) = DOWN phase
    names = core + core + list(leaf_switch)
    index = {name: i for i, name in enumerate(core)}
    index.update((name, m + i) for i, name in enumerate(leaf_switch))
    narrow = len(names) < _INF16
    inf = _INF16 if narrow else _INF
    dist = np.full((m, len(names)), inf, dtype=np.int16 if narrow else np.int32)
    succ = np.full((m, len(names)), -1, dtype=np.int32)
    ups = np.arange(c)
    np.fill_diagonal(dist, 0)
    # Entering the DOWN phase without moving is free: (u, UP) -> (u, DOWN).
    dist[ups, ups + c] = 0
    succ[ups, ups + c] = ups + c

    tails: list[int] = []
    heads: list[int] = []
    column = [index[name] for name in nodes]
    for i, x in enumerate(column):
        if x >= m:
            continue  # a leaf's row is derived, never stored
        for j in up_adj[i]:  # UP -> UP
            tails.append(x)
            heads.append(column[j])
        for j in down_adj[i]:
            y = column[j]
            down = y if y >= m else y + c
            tails += (x, x + c)  # UP -> DOWN (the single allowed turn),
            heads += (down, down)  # and DOWN -> DOWN
    dist[tails, heads] = 1
    succ[tails, heads] = heads

    # Min-plus Floyd–Warshall with numpy row/column broadcasting, into
    # buffers made once.
    via = np.empty_like(dist)
    better = np.empty(dist.shape, dtype=bool)
    for k in range(m):
        np.add(dist[:, k, None], dist[None, k, :], out=via)
        np.less(via, dist, out=better)
        np.copyto(dist, via, where=better)
        np.copyto(succ, succ[:, k, None], where=better)
    if narrow:
        unreached = dist == inf
        dist = dist.astype(np.int32)
        dist[unreached] = _INF
    return RoutingPaths(
        core=core,
        names=names,
        index=index,
        leaf_switch=leaf_switch,
        dist=dist,
        succ=succ,
    )
