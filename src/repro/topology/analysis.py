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

A caller that asks again after a change keeps a :class:`DistanceMemo`:
after a change that only removed wires it re-runs only the flows and BFS
rows the removal changed (``docs/ALGORITHM.md`` §4). The UP*/DOWN* root
pick keeps its BFS rows in one too.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from typing import TYPE_CHECKING, Callable

from repro.topology.model import Network, TopologyError, Wire

if TYPE_CHECKING:
    from repro.simulator.faults import FaultModel

__all__ = [
    "CoreDecomposition",
    "DistanceMemo",
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
    def of(cls, net: Network, names: list[str] | None = None) -> _Fabric:
        """The fabric of ``net``, its nodes indexed in ``names`` order
        (``net.nodes`` when not given)."""
        if names is None:
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

    def diameter(self, distances: Callable[[int], list[int]]) -> int:
        """The largest eccentricity, by one BFS row per node that is not a
        leaf, each read from ``distances``.

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
            dist = distances(source)
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
    residual arcs, and puts the capacities back. Wire arc ``a`` belongs to
    the node pair ``pairs[a >> 2]``.
    """

    __slots__ = (
        "root", "sink", "head", "cap", "rc", "out", "pi", "toward", "pairs", "n_wire_arcs",
    )

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
        self.pairs = list(fab.mult)
        self.n_wire_arcs = n_wire_arcs

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

    def q(self, v: int) -> tuple[int | None, frozenset[tuple[int, int]]]:
        """``Q(v)`` (``None`` when no two such trails exist) and its
        witness: the node pairs that either augmenting path crosses."""
        if v == self.root:
            return 0, frozenset()
        head, cap, toward = self.head, self.cap, self.toward
        path = []
        u = v
        while u != self.sink:
            a = toward[u]
            path.append(a)
            cap[a] -= 1
            cap[a ^ 1] += 1
            u = head[a]
        second = self._residual_path(v)
        for a in path:
            cap[a] += 1
            cap[a ^ 1] -= 1
        if second is None:
            return None, frozenset()
        cost, arcs = second
        pairs, n_wire_arcs = self.pairs, self.n_wire_arcs
        witness = frozenset(
            pairs[a >> 2] for a in path + arcs if a < n_wire_arcs
        )
        return 2 * self.pi[v] + cost, witness

    def _residual_path(self, v: int) -> tuple[int, list[int]] | None:
        """Reduced-cost distance from ``v`` to the sink over residual arcs,
        and the arcs of one shortest such path."""
        head, cap, rc, out, sink = self.head, self.cap, self.rc, self.out, self.sink
        best: list[float] = [inf] * len(out)
        best[v] = 0
        via = [0] * len(out)
        heap = [(0, v)]
        while heap:
            d, u = heappop(heap)
            if u == sink:
                arcs = []
                while u != v:
                    a = via[u]
                    arcs.append(a)
                    u = head[a ^ 1]
                return d, arcs
            if d > best[u]:
                continue
            for a in out[u]:
                if cap[a]:
                    w = head[a]
                    nd = d + rc[a]
                    if nd < best[w]:
                        best[w] = nd
                        via[w] = a
                        heappush(heap, (nd, w))
        return None


class DistanceMemo:
    """Distance work one owner keeps from one call to the next.

    A memo holds the last fabric it was given, the BFS rows asked of it
    there and the ``Q(v)`` flows with their witnesses. :meth:`begin`
    compares a new fabric with that one by ``mult``. When the change only
    removed wires, a kept row is reused if it passes the row test and a
    kept flow if none of its witness pairs lost a wire (docs/ALGORITHM.md
    §4); both are then exact. Any other change drops everything, and
    ``fallback`` names why. ``rows_run`` and ``flows_run`` count what the
    last call computed afresh; what it did not ask for is forgotten.
    """

    __slots__ = (
        "fallback", "rows", "flows", "rows_run", "flows_run",
        "_fab", "_root", "_flow", "_kept_rows", "_kept_flows", "_gone", "_lost",
    )

    def __init__(self) -> None:
        self.fallback: str | None = None
        self.rows: dict[int, list[int]] = {}
        self.flows: dict[int, tuple[int | None, frozenset[tuple[int, int]]]] = {}
        self.rows_run = 0
        self.flows_run = 0
        self._fab = _Fabric([], [], {})
        self._root: int | None = None
        self._flow: _TrailFlow | None = None
        self._kept_rows: dict[int, list[int]] = {}
        self._kept_flows: dict[int, tuple[int | None, frozenset[tuple[int, int]]]] = {}
        self._gone: list[tuple[int, int]] = []
        self._lost: set[tuple[int, int]] = set()

    def begin(self, fab: _Fabric, root: int | None) -> None:
        """Move to ``fab``; ``root`` is the mapper host's index, when the
        flows are wanted."""
        prev, self._fab = self._fab, fab
        prev_root, self._root = self._root, root
        self._flow = None
        if not prev.names:
            reason: str | None = "first call"
        elif prev.names != fab.names or prev.is_host != fab.is_host:
            reason = "different node list"
        elif root != prev_root:
            reason = "different mapper host"
        elif any(m > prev.mult.get(pair, 0) for pair, m in fab.mult.items()):
            reason = "a wire was added"
        else:
            reason = None
        self.fallback = reason
        if reason is None:
            self._lost = {
                pair for pair, m in prev.mult.items() if fab.mult.get(pair, 0) < m
            }
            self._gone = [pair for pair in self._lost if pair not in fab.mult]
            self._kept_rows, self._kept_flows = self.rows, self.flows
        else:
            self._lost, self._gone = set(), []
            self._kept_rows, self._kept_flows = {}, {}
        self.rows, self.flows = {}, {}
        self.rows_run = self.flows_run = 0

    def distances(self, source: int) -> list[int]:
        """:meth:`_Fabric.distances` of the current fabric, kept when exact."""
        row = self._kept_rows.get(source)
        if row is None or not self._holds(row):
            row = self._fab.distances(source)
            self.rows_run += 1
        self.rows[source] = row
        return row

    def _holds(self, row: list[int]) -> bool:
        """The row test: the far end of every vanished pair one level
        apart still has a neighbour one level nearer the source."""
        nbrs = self._fab.nbrs
        for a, b in self._gone:
            if row[a] == row[b] + 1:
                far = a
            elif row[b] == row[a] + 1:
                far = b
            else:
                continue
            nearer = row[far] - 1
            if all(row[w] != nearer for w in nbrs[far]):
                return False
        return True

    def q(self, v: int) -> int | None:
        """``Q(v)``, kept while no witness pair lost a wire. The flow's arc
        array is built on the first flow a call runs."""
        kept = self._kept_flows.get(v)
        if kept is None or not self._lost.isdisjoint(kept[1]):
            if self._flow is None:
                assert self._root is not None, "begin() was given no root"
                self._flow = _TrailFlow(self._fab, self._root)
            kept = self._flow.q(v)
            self.flows_run += 1
        self.flows[v] = kept
        return kept[0]


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



def _decompose(fab: _Fabric, root: int, memo: DistanceMemo) -> CoreDecomposition:
    """``Q(v)`` of a leaf ``v`` is ``d(h0, v)``: the flow's first unit
    leaves through ``v``'s own host arc (``pi[v] = 0``) and the second
    takes the shortest path to ``h0`` — one BFS from the root for all of
    them. Every other node runs the flow. The bridge pass and the root's
    row are computed afresh; the other rows and the flows come through
    ``memo``."""
    memo.begin(fab, root)
    _, separated = fab.bridge_pass()
    reach = fab.distances(root)
    qvals: dict[str, int] = {}
    for v, name in enumerate(fab.names):
        if v in separated:
            continue
        q = reach[v] if fab.leaf[v] >= 0 else memo.q(v)
        if q is not None:
            qvals[name] = q
    return CoreDecomposition(
        h0=fab.names[root],
        diameter=fab.diameter(memo.distances),
        f_set=frozenset(fab.names[i] for i in separated),
        q=max(qvals.values(), default=0),
        q_values=qvals,
    )


def core_decomposition(net: Network, h0: str) -> CoreDecomposition:
    """Compute ``D``, ``F``, all ``Q(v)`` and ``Q`` in one pass.

    All four are taken over ``h0``'s connected component. Raises
    :class:`TopologyError` when ``h0`` is not a host of ``net``.
    """
    return _decompose(*_Fabric.around(net, h0), DistanceMemo())


def recommended_search_depth(
    net: Network, h0: str, memo: DistanceMemo | None = None
) -> int:
    """The exploration depth ``Q + D + 1`` the algorithm is proven with.

    Computed over ``h0``'s connected component, so a cut that partitions
    the fabric yields the depth for the side the mapper can still reach.
    A component below the model's minimums (no switch, or ``h0`` the only
    host) gets depth 2: any small depth maps what little remains. A
    caller that asks again after a change passes the same ``memo`` and
    pays only for the distance work the change invalidated.
    """
    fab, root = _Fabric.around(net, h0)
    n_hosts = sum(fab.is_host)
    if n_hosts < 2 or n_hosts == len(fab.names):
        return 2
    if memo is None:
        memo = DistanceMemo()
    return _decompose(fab, root, memo).search_depth


def core_network(net: Network) -> Network:
    """The core ``N - F`` as a standalone :class:`Network`."""
    keep = set(net.nodes) - separated_set(net)
    return net.induced_subnetwork(keep)


def effective_network(
    net: Network, faults: "FaultModel", mapper_host: str
) -> Network:
    """Ground truth restricted to the mapper's component.

    Anything the mapper cannot reach cannot appear in its map, so this is
    the network the theorem's ``N`` becomes under faults. ``faults`` is
    not read: a silently dead cable (Section 5.6) is in-band
    indistinguishable from an absent one, so a failed cable is already a
    missing wire of ``net`` (the chaos applier disconnects it), and probe
    loss hides nothing for good. The parameter stays for the callers that
    pass it positionally. The subnetwork returned is a new network.
    """
    if mapper_host not in net:
        return net.induced_subnetwork([mapper_host])  # raises: no such node
    fab = _Fabric.of(net)
    dist = fab.distances(fab.names.index(mapper_host))
    return net.induced_subnetwork(
        name for name, d in zip(fab.names, dist) if d >= 0
    )
