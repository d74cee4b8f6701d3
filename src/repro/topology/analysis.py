"""Graph-theoretic analyses from Sections 2 and 3.1.4 of the paper.

Implements:

- the network diameter ``D``;
- bridges and *switch-bridges* (bridges with switches at both ends);
- the set ``F`` of nodes separated from the hosts ``H`` by a switch-bridge
  (Lemma 1), by one depth-first bridge pass (the max-flow/min-cut
  criterion the paper's proof uses is the cross-check in
  ``tests/topology/reference_analysis.py``);
- ``Q(v)`` (Definition 2): the length of the shortest path from the mapper
  ``h0`` through ``v`` and on to any host that repeats no edge in either
  direction, except that the first and last edge may coincide;
- ``Q = max Q(v)`` over the core (Definition 3) and the recommended
  exploration depth ``Q + D + 1`` (Section 3.1.4).

``Q(v)`` is an exact min-cost flow of two units: a trail ``h0 → v → h``
with no repeated edge decomposes at ``v`` into two edge-disjoint trails
``v → h0`` and ``v → h``; conversely two such trails concatenate into a
valid walk. With unit costs an optimal flow never routes both directions of
one wire (the 2-cycle would cancel), so the "no repeated edge in either
direction" constraint is enforced automatically. Two units need two
shortest augmenting paths, and every ``v`` shares one residual arc array
and one first-stage search (see :class:`_TrailFlow` and
``docs/ALGORITHM.md`` §4). Hosts are leaves: a host whose one wire goes to
a switch needs neither a flow nor a BFS of its own — its ``Q(v)`` is its
hop distance from ``h0`` and its eccentricity is read off its switch's BFS.

Everything parameterised by a mapper host ``h0`` is computed over ``h0``'s
connected component: what in-band probing cannot reach has no bearing on
the depth the mapper needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.topology.model import Network, TopologyError, Wire

if TYPE_CHECKING:
    from repro.simulator.faults import FaultModel

__all__ = [
    "CoreDecomposition",
    "bridges",
    "core_decomposition",
    "core_network",
    "effective_network",
    "recommended_search_depth",
    "separated_set",
]


class _Fabric:
    """Integer-indexed simple graph of a network (loopback cables dropped).

    ``mult`` maps each adjacent node pair, once, to its number of parallel
    wires; ``nbrs`` is the adjacency it induces. ``leaf[v]`` is the switch
    a *leaf host* ``v`` hangs off — a host's one wire, to a switch — and
    ``-1`` for every other node.
    """

    __slots__ = ("names", "is_host", "mult", "nbrs", "leaf")

    def __init__(
        self,
        names: list[str],
        is_host: list[bool],
        mult: dict[tuple[int, int], int],
    ) -> None:
        self.names = names
        self.is_host = is_host
        self.mult = mult
        self.nbrs: list[list[int]] = [[] for _ in names]
        for a, b in mult:
            self.nbrs[a].append(b)
            self.nbrs[b].append(a)
        self.leaf = [
            nbrs[0] if host and len(nbrs) == 1 and not is_host[nbrs[0]] else -1
            for host, nbrs in zip(is_host, self.nbrs)
        ]

    @classmethod
    def of(cls, net: Network) -> _Fabric:
        names = net.nodes
        index = {name: i for i, name in enumerate(names)}
        mult: dict[tuple[int, int], int] = {}
        for wire in net.wires:
            a, b = index[wire.a.node], index[wire.b.node]
            if a == b:
                continue  # loopback cables never affect connectivity
            pair = (a, b) if a < b else (b, a)
            mult[pair] = mult.get(pair, 0) + 1
        return cls(names, [net.is_host(n) for n in names], mult)

    @classmethod
    def around(cls, net: Network, h0: str) -> tuple[_Fabric, int]:
        """The fabric of ``h0``'s connected component, and ``h0``'s index."""
        if not net.is_host(h0):
            raise TopologyError(f"mapper node {h0} must be a host")
        whole = cls.of(net)
        root = whole.names.index(h0)
        dist = whole.distances(root)
        keep = [i for i, d in enumerate(dist) if d >= 0]
        if len(keep) == len(dist):
            return whole, root
        renumber = {old: new for new, old in enumerate(keep)}
        part = cls(
            [whole.names[i] for i in keep],
            [whole.is_host[i] for i in keep],
            {
                (renumber[a], renumber[b]): m
                for (a, b), m in whole.mult.items()
                if a in renumber
            },
        )
        return part, renumber[root]

    def distances(self, source: int) -> list[int]:
        """Hop distance from ``source`` to every node, ``-1`` if unreachable."""
        nbrs = self.nbrs
        dist = [-1] * len(nbrs)
        dist[source] = 0
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            reached = []
            for u in frontier:
                for w in nbrs[u]:
                    if dist[w] < 0:
                        dist[w] = hops
                        reached.append(w)
            frontier = reached
        return dist

    def diameter(self) -> int:
        """The largest eccentricity, by one BFS per node that is not a leaf.

        A leaf ``h`` on switch ``s`` reaches everything through ``s``, so
        ``ecc(h) = 1 + max_{x≠h} d(s, x)``: ``1 + ecc(s)`` whenever ``s``
        has another neighbour (one at distance 1 if nothing is farther),
        else 1, which ``s``'s own BFS already counts.
        """
        hubs = set(self.leaf)
        longest = 0
        for source, switch in enumerate(self.leaf):
            if switch >= 0:
                continue
            dist = self.distances(source)
            if min(dist) < 0:
                raise TopologyError("network is not connected")
            far = max(dist)
            if source in hubs and len(self.nbrs[source]) > 1:
                far += 1
            longest = max(longest, far)
        return longest

    def bridge_pass(self) -> tuple[list[tuple[int, int]], set[int]]:
        """One depth-first pass: the bridges and the separated set ``F``.

        Bridges come back as ``(parent, child)`` tree edges. Every search
        tree is rooted at a host when its component has one, so the root
        side of a bridge is never host-free: ``F`` is the union of the
        host-free subtrees hanging below switch-bridges, plus every
        component that has no host at all.
        """
        nbrs, is_host = self.nbrs, self.is_host
        n = len(nbrs)
        tin = [-1] * n
        low = [0] * n
        parent = [-1] * n
        order: list[int] = []
        separated: set[int] = set()
        roots = sorted(range(n), key=lambda i: not is_host[i])
        for root in roots:
            if tin[root] >= 0:
                continue
            first = len(order)
            tin[root] = low[root] = first
            order.append(root)
            stack = [(root, iter(nbrs[root]))]
            while stack:
                u, rest = stack[-1]
                for w in rest:
                    if tin[w] < 0:
                        parent[w] = u
                        tin[w] = low[w] = len(order)
                        order.append(w)
                        stack.append((w, iter(nbrs[w])))
                        break
                    if w != parent[u] and tin[w] < low[u]:
                        low[u] = tin[w]
                else:
                    stack.pop()
                    if stack and low[u] < low[parent[u]]:
                        low[parent[u]] = low[u]
            if not is_host[root]:
                separated.update(order[first:])
        size = [1] * n
        hosts_below = [int(h) for h in is_host]
        for u in reversed(order):
            if parent[u] >= 0:
                size[parent[u]] += size[u]
                hosts_below[parent[u]] += hosts_below[u]
        found = []
        for u in order:
            p = parent[u]
            if p < 0 or low[u] <= tin[p]:
                continue
            if self.mult[(p, u) if p < u else (u, p)] > 1:
                continue  # a parallel wire keeps the pair connected
            found.append((p, u))
            if not (is_host[p] or is_host[u] or hosts_below[u]):
                separated.update(order[tin[u] : tin[u] + size[u]])
        return found, separated


def bridges(net: Network) -> list[Wire]:
    """All bridge wires: wires whose removal disconnects the network.

    A wire parallel to another wire between the same node pair is never a
    bridge, and loopback cables are never bridges.
    """
    fab = _Fabric.of(net)
    found, _ = fab.bridge_pass()
    pairs = {frozenset((fab.names[p], fab.names[c])) for p, c in found}
    return [w for w in net.wires if frozenset(w.nodes) in pairs]


def separated_set(net: Network) -> set[str]:
    """The set ``F``: nodes separated from all hosts by some switch-bridge.

    Computed directly from Lemma 1's characterization: a node is in ``F``
    when removing some switch-bridge leaves it in a component containing no
    host. A component that has no host to begin with is in ``F`` whole.
    """
    fab = _Fabric.of(net)
    _, separated = fab.bridge_pass()
    return {fab.names[i] for i in separated}


class _TrailFlow:
    """The Definition 2 min-cost flow for every ``v``, on one arc array.

    Network: each wire is a unit-cost arc of capacity 1 in both directions
    (parallel wires add up); one unit must leave through ``h0`` and one
    through any host, ``h0`` included. The Definition 2 anomaly — the first
    and last edge of the walk may be the same — lives in one number: the
    arc into ``h0`` has capacity 2, so ``h0``'s attachment wire may carry
    both trail ends.

    Arc ``a`` and its residual twin ``a ^ 1`` are adjacent; the two
    directions of a wire are ``a`` and ``a ^ 2``. Successive shortest paths
    make the two-unit flow exact. The first stage is shared: ``pi`` is every
    node's distance to the sink, so the first augmenting path of any ``v``
    just follows ``toward``, and the same ``pi`` serves as the potentials
    that keep the second search's reduced costs ``rc`` non-negative. Each
    ``q(v)`` pushes one unit along that path, runs one Dijkstra on the
    residual arcs, and puts the capacities back.
    """

    __slots__ = ("root", "sink", "head", "cap", "rc", "out", "pi", "toward")

    def __init__(self, fab: _Fabric, root: int) -> None:
        n = len(fab.names)
        via_h0, via_any, sink = n, n + 1, n + 2
        self.root = root
        self.sink = sink
        head: list[int] = []
        cap: list[int] = []
        cost: list[int] = []
        out: list[list[int]] = [[] for _ in range(n + 3)]

        def arc(u: int, w: int, capacity: int, price: int) -> None:
            out[u].append(len(head))
            out[w].append(len(head) + 1)
            head.extend((w, u))
            cap.extend((capacity, 0))
            cost.extend((price, -price))

        for (a, b), m in fab.mult.items():
            arc(a, b, 2 * m if b == root else m, 1)
            arc(b, a, 2 * m if a == root else m, 1)
        n_wire_arcs = len(head)

        pi = [-1] * (n + 3)
        toward = [-1] * (n + 3)
        pi[via_h0] = pi[via_any] = pi[sink] = 0
        frontier = []
        for h, host in enumerate(fab.is_host):
            if host:
                pi[h] = 0
                toward[h] = len(head)
                arc(h, via_any, 1, 0)
                frontier.append(h)
        arc(root, via_h0, 1, 0)
        toward[via_h0] = len(head)
        arc(via_h0, sink, 1, 0)
        toward[via_any] = len(head)
        arc(via_any, sink, 1, 0)

        # Multi-source BFS from the hosts; arc ``a ^ 2`` leads back along
        # the wire just crossed, i.e. one hop closer to a host.
        hops = 0
        while frontier:
            hops += 1
            reached = []
            for w in frontier:
                for a in out[w]:
                    if a < n_wire_arcs and not a & 1 and pi[head[a]] < 0:
                        pi[head[a]] = hops
                        toward[head[a]] = a ^ 2
                        reached.append(head[a])
            frontier = reached

        self.head, self.cap, self.out = head, cap, out
        self.pi, self.toward = pi, toward
        self.rc = [
            cost[a] + pi[head[a]] - pi[head[a ^ 1]] for a in range(len(head))
        ]

    def q(self, v: int) -> int | None:
        """``Q(v)``, or ``None`` when no two such trails exist."""
        if v == self.root:
            return 0
        head, cap, toward = self.head, self.cap, self.toward
        path = []
        u = v
        while u != self.sink:
            a = toward[u]
            path.append(a)
            cap[a] -= 1
            cap[a ^ 1] += 1
            u = head[a]
        second = self._residual_distance(v)
        for a in path:
            cap[a] += 1
            cap[a ^ 1] -= 1
        return None if second is None else 2 * self.pi[v] + second

    def _residual_distance(self, v: int) -> int | None:
        """Reduced-cost distance from ``v`` to the sink over residual arcs."""
        head, cap, rc, out, sink = self.head, self.cap, self.rc, self.out, self.sink
        best = {v: 0}
        heap = [(0, v)]
        while heap:
            d, u = heappop(heap)
            if u == sink:
                return d
            if d > best[u]:
                continue
            for a in out[u]:
                if cap[a]:
                    w = head[a]
                    nd = d + rc[a]
                    if nd < best.get(w, nd + 1):
                        best[w] = nd
                        heappush(heap, (nd, w))
        return None





@dataclass(frozen=True, slots=True)
class CoreDecomposition:
    """Everything the exploration-depth bound of Section 3.1.4 needs."""

    h0: str
    diameter: int
    f_set: frozenset[str]
    q: int
    q_values: dict[str, int]

    @property
    def search_depth(self) -> int:
        """The paper's bound ``Q + D + 1`` on probe string length."""
        return self.q + self.diameter + 1



def _decompose(fab: _Fabric, root: int) -> CoreDecomposition:
    """``Q(v)`` of a leaf ``v`` is ``d(h0, v)``: the flow's first unit
    leaves through ``v``'s own host arc (``pi[v] = 0``) and the second
    takes the shortest path to ``h0`` — one BFS from the root for all of
    them. Every other node runs the flow."""
    _, separated = fab.bridge_pass()
    flow = _TrailFlow(fab, root)
    reach = fab.distances(root)
    qvals: dict[str, int] = {}
    for v, name in enumerate(fab.names):
        if v in separated:
            continue
        q = reach[v] if fab.leaf[v] >= 0 else flow.q(v)
        if q is not None:
            qvals[name] = q
    return CoreDecomposition(
        h0=fab.names[root],
        diameter=fab.diameter(),
        f_set=frozenset(fab.names[i] for i in separated),
        q=max(qvals.values(), default=0),
        q_values=qvals,
    )


def core_decomposition(net: Network, h0: str) -> CoreDecomposition:
    """Compute ``D``, ``F``, all ``Q(v)`` and ``Q`` in one pass.

    All four are taken over ``h0``'s connected component. Raises
    :class:`TopologyError` when ``h0`` is not a host of ``net``.
    """
    return _decompose(*_Fabric.around(net, h0))


def recommended_search_depth(net: Network, h0: str) -> int:
    """The exploration depth ``Q + D + 1`` the algorithm is proven with.

    Computed over ``h0``'s connected component, so a cut that partitions
    the fabric yields the depth for the side the mapper can still reach.
    A component below the model's minimums (no switch, or ``h0`` the only
    host) gets depth 2: any small depth maps what little remains.
    """
    fab, root = _Fabric.around(net, h0)
    n_hosts = sum(fab.is_host)
    if n_hosts < 2 or n_hosts == len(fab.names):
        return 2
    return _decompose(fab, root).search_depth


def core_network(net: Network) -> Network:
    """The core ``N - F`` as a standalone :class:`Network`."""
    keep = set(net.nodes) - separated_set(net)
    return net.induced_subnetwork(keep)


def effective_network(
    net: Network, faults: "FaultModel", mapper_host: str
) -> Network:
    """Ground truth minus dead cables, restricted to the mapper's component.

    A silently dead cable (Section 5.6) is in-band indistinguishable from an
    absent cable, and anything the mapper cannot reach cannot appear in its
    map — so this is the network the theorem's ``N`` becomes under faults.
    Reads only ``faults.dead_wires``.
    """
    eff = net.copy()
    if faults.dead_wires:
        for wire in list(eff.wires):
            if frozenset((wire.a, wire.b)) in faults.dead_wires:
                eff.disconnect(wire)
    if mapper_host not in eff:
        return eff.induced_subnetwork([mapper_host])  # raises: no such node
    fab = _Fabric.of(eff)
    dist = fab.distances(fab.names.index(mapper_host))
    return eff.induced_subnetwork(
        name for name, d in zip(fab.names, dist) if d >= 0
    )
