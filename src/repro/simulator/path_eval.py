"""Message-path evaluation: Section 2.2 of the paper, executable.

Given a network, a sending host ``h0`` and a routing address ``a1...ak``,
compute the message path ``h0, n1, ..., nk+1`` — or the precise failure
mode. The four ways a routing address fails to define a message path:

- ``ILLEGAL_TURN`` — some ``p_i + a_i`` is not a legal port number;
- ``NO_SUCH_WIRE`` — the switch has no wire at the computed output port;
- ``HIT_HOST_TOO_SOON`` — the message arrives at a host with routing
  characters left (the hardware destroys it);
- ``STRANDED`` — the characters are exhausted but the path ends at a switch.

The evaluation also records every *directed wire traversal*, which is what
the collision models of Section 2.3.1 consume: a worm that re-crosses a wire
in the same direction may block on its own tail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.topology.delta import Endpoint
from repro.topology.model import HOST_PORT, Network, PortRef

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulator.collision import CollisionModel
    from repro.simulator.faults import FaultModel

__all__ = [
    "EvalCacheStats",
    "IncrementalPathEvaluator",
    "PathStatus",
    "ProbeInfo",
    "Traversal",
    "PathResult",
    "evaluate_route",
    "route_touches",
]


class PathStatus(enum.Enum):
    """Outcome of evaluating a routing address."""

    DELIVERED = "delivered"
    ILLEGAL_TURN = "illegal turn"
    NO_SUCH_WIRE = "no such wire"
    HIT_HOST_TOO_SOON = "hit a host too soon"
    STRANDED = "stranded in network"
    NOT_ATTACHED = "source host not attached"


@dataclass(frozen=True, slots=True)
class Traversal:
    """One directed wire crossing: from ``src`` out to ``dst``."""

    src: PortRef
    dst: PortRef

    @property
    def undirected(self) -> tuple[PortRef, PortRef]:
        """Direction-insensitive wire identity."""
        return (self.src, self.dst) if self.src <= self.dst else (self.dst, self.src)

    def reversed(self) -> "Traversal":
        return Traversal(self.dst, self.src)


@dataclass(slots=True)
class PathResult:
    """The message path (possibly partial) and its outcome."""

    status: PathStatus
    nodes: list[str] = field(default_factory=list)
    traversals: list[Traversal] = field(default_factory=list)
    delivered_to: str | None = None
    failed_at_turn: int | None = None

    @property
    def ok(self) -> bool:
        return self.status is PathStatus.DELIVERED

    @property
    def hops(self) -> int:
        """Number of wires crossed before termination or failure."""
        return len(self.traversals)


def evaluate_route(
    net: Network, h0: str, turns: Iterable[int]
) -> PathResult:
    """Evaluate routing address ``turns`` injected by host ``h0``.

    Follows Section 2.2 exactly: the first hop crosses the host's wire to
    the adjacent switch port ``(n1, p1)``; each turn ``a_i`` is applied to
    the *input* port of the current switch; the path ends when the turns are
    exhausted (success iff the terminal node is a host) or a failure mode
    triggers. Turn 0 is evaluated like any other (output = input port), as
    the switch-probe's bounce requires.
    """
    if not net.is_host(h0):
        raise ValueError(f"source {h0} is not a host")
    seq = tuple(turns)
    result = PathResult(status=PathStatus.DELIVERED, nodes=[h0])

    attach = net.neighbor_at(h0, HOST_PORT)
    if attach is None:
        result.status = PathStatus.NOT_ATTACHED
        return result
    result.traversals.append(Traversal(PortRef(h0, HOST_PORT), attach))
    result.nodes.append(attach.node)
    current = attach  # the (node, input port) the message now sits at

    for i, turn in enumerate(seq):
        if net.is_host(current.node):
            # Routing characters remain but we are at a host: the hardware
            # destroys the message.
            result.status = PathStatus.HIT_HOST_TOO_SOON
            result.failed_at_turn = i
            return result
        out_port = current.port + turn  # NOT modulo the radix (Section 2.2)
        if not 0 <= out_port < net.radix(current.node):
            result.status = PathStatus.ILLEGAL_TURN
            result.failed_at_turn = i
            return result
        src = PortRef(current.node, out_port)
        dst = net.neighbor_at(current.node, out_port)
        if dst is None:
            result.status = PathStatus.NO_SUCH_WIRE
            result.failed_at_turn = i
            return result
        result.traversals.append(Traversal(src, dst))
        result.nodes.append(dst.node)
        current = dst

    if net.is_switch(current.node):
        result.status = PathStatus.STRANDED
        return result
    result.delivered_to = current.node
    return result


def route_touches(
    net: Network,
    h0: str,
    turns: Iterable[int],
    endpoints: frozenset[Endpoint] | set[Endpoint],
) -> bool:
    """Whether the message path of ``turns`` touches any wire end given.

    The footprint of a route is every wire end its traversals cross *plus*
    the end its failure (if any) is pinned to: a NO_SUCH_WIRE verdict
    depends on the computed output port staying unwired, and a
    NOT_ATTACHED verdict on the source's port 0 staying free — a wire
    plugged there later changes the answer, so those ends belong to the
    footprint. A route whose footprint is disjoint from a mutation delta
    provably evaluates identically before and after the mutation (the walk
    consults the network only through these ends).

    This is the pure-function form; :meth:`IncrementalPathEvaluator.touches`
    answers the same question from the trie without re-walking.
    """
    seq = tuple(turns)
    path = evaluate_route(net, h0, seq)
    for tr in path.traversals:
        if (tr.src.node, tr.src.port) in endpoints:
            return True
        if (tr.dst.node, tr.dst.port) in endpoints:
            return True
    if path.status is PathStatus.NOT_ATTACHED:
        return (h0, HOST_PORT) in endpoints
    if path.status is PathStatus.NO_SUCH_WIRE:
        at = path.traversals[-1].dst
        assert path.failed_at_turn is not None
        return (at.node, at.port + seq[path.failed_at_turn]) in endpoints
    return False


@dataclass(frozen=True, slots=True)
class EvalCacheStats:
    """Snapshot of an :class:`IncrementalPathEvaluator`'s counters."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evaluations: int = 0
    nodes: int = 0
    #: Surgical (delta-driven) invalidation passes — ``invalidations``
    #: counts only wholesale flushes.
    surgical: int = 0
    #: Trie nodes dropped across all surgical passes.
    nodes_dropped: int = 0
    #: Probes resolved through the sibling-batch hint table. Each such
    #: probe still credits ``hits`` for every level the hint let it skip
    #: (the accounting is identical to a full descent of the same
    #: string); this counter records how often the shortcut itself fired.
    hinted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True, slots=True)
class ProbeInfo:
    """The slice of a path evaluation the probe hot path actually needs.

    Unlike :class:`PathResult` this carries no node list and shares its
    traversal tuple with the evaluator's trie, so constructing one is O(1).
    ``blocked`` is the collision model's verdict (index of the first
    self-blocking traversal) and is only meaningful when ``ok``.
    """

    status: PathStatus
    hops: int
    delivered_to: str | None
    blocked: int | None
    traversals: tuple[Traversal, ...]

    @property
    def ok(self) -> bool:
        return self.status is PathStatus.DELIVERED


_FAILED = (
    PathStatus.ILLEGAL_TURN,
    PathStatus.NO_SUCH_WIRE,
    PathStatus.HIT_HOST_TOO_SOON,
    PathStatus.NOT_ATTACHED,
)


class _TrieNode:
    """One cached walk state: the message after consuming a turns-prefix.

    ``status`` is ``None`` while the walk is still in flight (the message
    sits at ``current``); otherwise the node is *absorbing* — the prefix
    already failed, and every extension yields the identical failure, so
    children are never materialized past it.
    """

    __slots__ = (
        "children",
        "current",
        "current_is_host",
        "current_radix",
        "status",
        "failed_at",
        "nodes",
        "traversals",
        "rev_traversals",
        "collision_memo",
        "loopback_traversals",
        "loopback_memo",
        "fwd_blocked",
        "last_rev",
        "dep",
    )

    def __init__(
        self,
        *,
        current: PortRef | None,
        current_is_host: bool,
        current_radix: int,
        status: PathStatus | None,
        failed_at: int | None,
        nodes: tuple[str, ...],
        traversals: tuple[Traversal, ...],
        dep: tuple[Endpoint, ...] = (),
    ) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.current = current
        self.current_is_host = current_is_host
        self.current_radix = current_radix
        self.status = status
        self.failed_at = failed_at
        self.nodes = nodes
        self.traversals = traversals
        # The wire ends *this node's own step* reads from the network: the
        # crossed wire's two ends for an in-flight extension, the probed
        # (node, out-port) for a NO_SUCH_WIRE verdict, the source's port 0
        # for a root. Ancestors carry the deps of earlier hops, so a
        # subtree is stale w.r.t. a mutation delta exactly when some node
        # on its root path has a dep in the delta — which is what the
        # surgical invalidation DFS checks. ILLEGAL_TURN and
        # HIT_HOST_TOO_SOON read only radix/kind (immutable while the node
        # exists; removal is covered by the ancestor that crossed into the
        # node), so their dep is empty.
        self.dep = dep
        # Retrace of ``traversals`` (each hop reversed, in backward order),
        # built incrementally at extension time so the loopback tuple is a
        # plain concat instead of m fresh Traversal constructions. Only
        # in-flight nodes need it (failures never build loopbacks).
        self.rev_traversals: tuple[Traversal, ...] = ()
        # Per-node memo of collision-model verdicts, keyed by the (frozen,
        # hashable) model instance. Lazily created: most nodes never reach
        # a delivered terminal.
        self.collision_memo: dict[object, int | None] | None = None
        # Lazily-built traversal tuple of this prefix's switch-probe
        # loopback (out along the prefix, bounce, retrace), plus its own
        # collision memo.
        self.loopback_traversals: tuple[Traversal, ...] | None = None
        self.loopback_memo: dict[object, int | None] | None = None
        # Incremental circuit-model state (in-flight nodes only): the index
        # of the first directed re-crossing (None while all channels are
        # distinct), and the largest index whose reverse channel was also
        # crossed (drives the loopback verdict: a retrace re-crosses every
        # wire backwards). The channels themselves are ``traversals`` — a
        # handful of hops, scanned instead of copied into a per-node set.
        self.fwd_blocked: int | None = None
        self.last_rev: int | None = None


def _collect_subtree(node: _TrieNode, into: set[int]) -> None:
    """Record the identity of every node in a subtree being dropped.

    The ids let the hint table be pruned precisely (a hint is stale iff it
    points at a dropped node); the set's size is the drop count. Collected
    and consumed within one invalidation pass, before any allocation could
    reuse an address.
    """
    stack = [node]
    while stack:
        n = stack.pop()
        into.add(id(n))
        stack.extend(n.children.values())


class IncrementalPathEvaluator:
    """Prefix-trie cache over :func:`evaluate_route`.

    Keyed on ``(source host, turns-prefix)``: each trie node stores the
    walk state after consuming that prefix, so evaluating ``turns + (a,)``
    right after ``turns`` costs one switch-hop instead of ``len(turns)+1``.
    That is exactly the access pattern of the mapper's explore loop, which
    extends known probe strings one turn at a time.

    Correctness is guarded by epoch counters plus the owners' delta
    journals. When ``net.topology_epoch`` moves, the evaluator asks the
    network *which wire ends* changed (:meth:`Network.affected_since`) and
    drops only the subtrees whose cached walk touched one of them — each
    trie node records the ends its own step read (``_TrieNode.dep``), so
    "no node on the root path has an affected dep" proves the whole cached
    walk still evaluates identically. Only when the journal cannot answer
    (window exceeded) does the evaluator fall back to the wholesale flush.
    A ``faults.fault_epoch`` move needs no invalidation at all: cached
    walks never consult the fault model — kill decisions are drawn fresh
    per probe by the services — so only the epoch cursor advances. Results
    remain byte-identical to the pure function — including the
    ``ValueError`` on a non-host source.
    """

    def __init__(
        self,
        net: Network,
        *,
        faults: "FaultModel | None" = None,
        max_nodes: int = 1_000_000,
    ) -> None:
        self._net = net
        self._faults = faults
        self._max_nodes = max_nodes
        # Resolved here (not at module level) to avoid an import cycle:
        # collision.py imports Traversal from this module.
        from repro.simulator.collision import CircuitModel

        self._circuit_type = CircuitModel
        self._roots: dict[str, _TrieNode] = {}
        # Sibling-batch hints: ``(h0, shared prefix)`` -> trie node after
        # consuming that prefix, primed by :meth:`warm_siblings`. A walk of
        # ``prefix + (t,)`` then costs one dict lookup plus one child step
        # instead of an O(depth) descent. A hint lives as long as its node:
        # wholesale invalidation clears the table, surgical invalidation
        # prunes exactly the hints pointing into dropped subtrees.
        self._hints: dict[tuple[str, tuple[int, ...]], _TrieNode] = {}
        # Flat (node, port) -> (far end, far is host, far radix) memo,
        # filled on demand (None for unwired ports). Plain-tuple keys hash
        # much faster than PortRef dataclasses on the per-probe extension
        # path, and carrying the far node's kind and radix saves two more
        # registry lookups per hop; dropped with the trie on invalidation.
        self._adj: dict[
            tuple[str, int], tuple[PortRef, bool, int] | None
        ] = {}
        self._topo_epoch = net.topology_epoch
        self._fault_epoch = faults.fault_epoch if faults is not None else 0
        self._n_nodes = 0
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._evaluations = 0
        self._surgical = 0
        self._nodes_dropped = 0
        self._hinted = 0

    @property
    def stats(self) -> EvalCacheStats:
        return EvalCacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            evaluations=self._evaluations,
            nodes=self._n_nodes,
            surgical=self._surgical,
            nodes_dropped=self._nodes_dropped,
            hinted=self._hinted,
        )

    def invalidate(self) -> None:
        """Drop every cached walk (counted in ``stats.invalidations``)."""
        self._roots.clear()
        self._hints.clear()
        self._adj.clear()
        self._n_nodes = 0
        self._invalidations += 1
        self._topo_epoch = self._net.topology_epoch
        if self._faults is not None:
            self._fault_epoch = self._faults.fault_epoch

    def invalidate_endpoints(
        self, endpoints: frozenset[Endpoint] | set[Endpoint]
    ) -> int:
        """Drop exactly the cached walks that touched the given wire ends.

        A subtree survives iff no node on its root path has a ``dep`` in
        ``endpoints`` — sound because a walk reads the network only
        through its deps (see ``_TrieNode.dep``). Sibling hints that point
        into a dropped subtree are pruned with it; adjacency memos are
        popped for exactly the affected keys (a changed end may have gone
        from wired to free or vice versa — the memo caches both answers).
        Returns the number of trie nodes dropped.
        """
        dropped_ids: set[int] = set()
        for h0 in list(self._roots):
            root = self._roots[h0]
            if any(e in endpoints for e in root.dep):
                _collect_subtree(root, dropped_ids)
                del self._roots[h0]
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                children = node.children
                for turn in list(children):
                    child = children[turn]
                    if any(e in endpoints for e in child.dep):
                        _collect_subtree(child, dropped_ids)
                        del children[turn]
                    else:
                        stack.append(child)
        dropped = len(dropped_ids)
        if dropped:
            self._n_nodes -= dropped
            if self._hints:
                self._hints = {
                    k: v
                    for k, v in self._hints.items()
                    if id(v) not in dropped_ids
                }
        for key in endpoints:
            self._adj.pop(key, None)
        self._surgical += 1
        self._nodes_dropped += dropped
        return dropped

    def _refresh(self) -> None:
        """Bring the cache up to the owners' epochs before a walk.

        Topology moves are resolved surgically through the network's delta
        journal; an unanswerable (out-of-window) or unbounded delta falls
        back to the wholesale flush. Fault moves advance the cursor only —
        cached walks are fault-independent by construction.
        """
        net = self._net
        if net.topology_epoch != self._topo_epoch:
            delta = net.affected_since(self._topo_epoch)
            if delta is None or delta.unbounded:
                self.invalidate()
                return
            if delta.removed or delta.added:
                self.invalidate_endpoints(delta.endpoints)
            self._topo_epoch = net.topology_epoch
        if self._faults is not None:
            self._fault_epoch = self._faults.fault_epoch

    def touches(
        self,
        h0: str,
        turns: Iterable[int],
        endpoints: frozenset[Endpoint] | set[Endpoint],
    ) -> bool:
        """Trie-backed :func:`route_touches`: does this route's footprint
        intersect the given wire ends?

        Walks (and therefore caches) the route like any evaluation, then
        checks every crossed wire end plus the failure pin (the node's own
        ``dep`` — for absorbing verdicts this is the end the failure
        depends on). Purely local computation: no probe is charged.
        """
        node = self._walk(h0, tuple(turns))
        for tr in node.traversals:
            if (tr.src.node, tr.src.port) in endpoints:
                return True
            if (tr.dst.node, tr.dst.port) in endpoints:
                return True
        if node.status is not None:
            return any(e in endpoints for e in node.dep)
        return False

    def _root(self, h0: str) -> _TrieNode:
        root = self._roots.get(h0)
        if root is not None:
            self._hits += 1
            return root
        net = self._net
        if not net.is_host(h0):
            raise ValueError(f"source {h0} is not a host")
        attach = net.neighbor_at(h0, HOST_PORT)
        if attach is None:
            root = _TrieNode(
                current=None,
                current_is_host=False,
                current_radix=0,
                status=PathStatus.NOT_ATTACHED,
                failed_at=None,
                nodes=(h0,),
                traversals=(),
                dep=((h0, HOST_PORT),),
            )
        else:
            root = _TrieNode(
                current=attach,
                current_is_host=net.is_host(attach.node),
                current_radix=net.radix(attach.node),
                status=None,
                failed_at=None,
                nodes=(h0, attach.node),
                traversals=(Traversal(PortRef(h0, HOST_PORT), attach),),
                dep=((h0, HOST_PORT), (attach.node, attach.port)),
            )
            root.rev_traversals = (Traversal(attach, PortRef(h0, HOST_PORT)),)
        self._roots[h0] = root
        self._n_nodes += 1
        self._misses += 1
        return root

    def _extend(self, parent: _TrieNode, turn: int, i: int) -> _TrieNode:
        net = self._net
        if parent.current_is_host:
            child = _TrieNode(
                current=None,
                current_is_host=False,
                current_radix=0,
                status=PathStatus.HIT_HOST_TOO_SOON,
                failed_at=i,
                nodes=parent.nodes,
                traversals=parent.traversals,
            )
        else:
            cur = parent.current
            assert cur is not None  # in-flight nodes always have a position
            out_port = cur.port + turn  # NOT modulo the radix (Section 2.2)
            if not 0 <= out_port < parent.current_radix:
                child = _TrieNode(
                    current=None,
                    current_is_host=False,
                    current_radix=0,
                    status=PathStatus.ILLEGAL_TURN,
                    failed_at=i,
                    nodes=parent.nodes,
                    traversals=parent.traversals,
                )
            else:
                key = (cur.node, out_port)
                adj = self._adj
                if key in adj:
                    far = adj[key]
                else:
                    dst = net.neighbor_at(cur.node, out_port)
                    far = adj[key] = None if dst is None else (
                        dst, net.is_host(dst.node), net.radix(dst.node)
                    )
                if far is None:
                    child = _TrieNode(
                        current=None,
                        current_is_host=False,
                        current_radix=0,
                        status=PathStatus.NO_SUCH_WIRE,
                        failed_at=i,
                        nodes=parent.nodes,
                        traversals=parent.traversals,
                        dep=(key,),
                    )
                else:
                    dst, dst_is_host, dst_radix = far
                    src = PortRef(cur.node, out_port)
                    child = _TrieNode(
                        current=dst,
                        current_is_host=dst_is_host,
                        current_radix=dst_radix,
                        status=None,
                        failed_at=None,
                        nodes=parent.nodes + (dst.node,),
                        traversals=parent.traversals + (Traversal(src, dst),),
                        dep=(key, (dst.node, dst.port)),
                    )
                    child.rev_traversals = (
                        Traversal(dst, src),
                    ) + parent.rev_traversals
                    # Extend the circuit-model state by one channel. The
                    # channels crossed so far are exactly the parent's
                    # traversals, so a short scan replaces the per-node
                    # channel-set copy the old code paid on every hop.
                    if parent.fwd_blocked is not None:
                        child.fwd_blocked = parent.fwd_blocked
                    else:
                        fwd = rev = False
                        for t in parent.traversals:
                            if t.src == src and t.dst == dst:
                                fwd = True
                                break
                            if t.src == dst and t.dst == src:
                                rev = True
                        if fwd:
                            child.fwd_blocked = i + 1  # +1: the attach hop
                        else:
                            child.last_rev = (
                                i + 1 if rev else parent.last_rev
                            )
        parent.children[turn] = child
        self._n_nodes += 1
        self._misses += 1
        if self._n_nodes > self._max_nodes:
            # Backstop against unbounded growth on adversarial probe sets:
            # drop the trie but keep handing out this (still valid) node.
            self._roots.clear()
            self._hints.clear()
            self._n_nodes = 0
            self._invalidations += 1
        return child

    def _walk(self, h0: str, seq: tuple[int, ...]) -> _TrieNode:
        self._refresh()
        if seq and self._hints:
            node = self._hints.get((h0, seq[:-1]))
            if node is not None:
                self._hinted += 1
                # Credit one hit per level the hint let us skip, so the
                # counters read identically to a full descent of the same
                # string: root + len(seq)-1 prefix children for an
                # in-flight node, root + failed_at+1 children down to an
                # absorbing one.
                if node.status is not None:
                    # The prefix already failed; so does every extension.
                    if node.failed_at is None:
                        self._hits += 1  # absorbing root: NOT_ATTACHED
                    else:
                        self._hits += node.failed_at + 2
                    return node
                self._hits += len(seq)
                turn = seq[-1]
                child = node.children.get(turn)
                if child is None:
                    child = self._extend(node, turn, len(seq) - 1)
                else:
                    self._hits += 1
                return child
        node = self._root(h0)
        if node.status is not None:
            return node
        for i, turn in enumerate(seq):
            child = node.children.get(turn)
            if child is None:
                child = self._extend(node, turn, i)
            else:
                self._hits += 1
            node = child
            if node.status is not None:
                return node
        return node

    def warm_siblings(
        self, h0: str, prefix: Iterable[int], turns: Iterable[int]
    ) -> int:
        """Prime the shared prefix for a run of sibling probes.

        The mapper's explore loop extends one probe string by each turn of
        its port plan; walking the shared prefix per probe costs O(depth)
        dict hops each. This walks it *once* and records the resulting node
        in the hint table consulted by :meth:`_walk` — each sibling's
        evaluation is then one hint lookup plus one child step. Nothing is
        evaluated speculatively: the final hop happens only when the probe
        actually arrives, so siblings the caller announces but never probes
        (a hit narrowed its plan) cost nothing. Hints share the trie's
        lifetime (any epoch move drops both), so a mid-batch topology or
        fault mutation falls back to a fresh walk from the root. Returns
        the number of siblings the hint covers.
        """
        seq = tuple(prefix)
        self._refresh()
        if (h0, seq) in self._hints:
            # Re-primed mid-run (the caller saw a hit): the prefix node is
            # already hinted, nothing to walk.
            return sum(1 for _ in turns)
        node = self._root(h0)
        if node.status is None:
            for i, turn in enumerate(seq):
                child = node.children.get(turn)
                if child is None:
                    child = self._extend(node, turn, i)
                else:
                    self._hits += 1
                node = child
                if node.status is not None:
                    # Absorbing prefix: every extension is the identical
                    # failure node (what _walk returns for longer strings).
                    break
        self._hints[(h0, seq)] = node
        return sum(1 for _ in turns)

    def evaluate(self, h0: str, turns: Iterable[int]) -> PathResult:
        """Drop-in replacement for :func:`evaluate_route`."""
        node = self._walk(h0, tuple(turns))
        self._evaluations += 1
        if node.status is not None:
            return PathResult(
                status=node.status,
                nodes=list(node.nodes),
                traversals=list(node.traversals),
                failed_at_turn=node.failed_at,
            )
        if node.current_is_host:
            assert node.current is not None
            return PathResult(
                status=PathStatus.DELIVERED,
                nodes=list(node.nodes),
                traversals=list(node.traversals),
                delivered_to=node.current.node,
            )
        return PathResult(
            status=PathStatus.STRANDED,
            nodes=list(node.nodes),
            traversals=list(node.traversals),
        )

    def probe_info(
        self,
        h0: str,
        turns: Iterable[int],
        collision: "CollisionModel | None" = None,
    ) -> ProbeInfo:
        """Evaluate without materializing lists, with the collision verdict.

        The collision model's ``blocked_at`` is memoized per trie node per
        model instance (models are frozen dataclasses, hence hashable); an
        unhashable custom model simply skips the memo.
        """
        node = self._walk(h0, tuple(turns))
        self._evaluations += 1
        if node.status is not None:
            return ProbeInfo(node.status, len(node.traversals), None, None, node.traversals)
        assert node.current is not None
        if not node.current_is_host:
            return ProbeInfo(
                PathStatus.STRANDED, len(node.traversals), None, None, node.traversals
            )
        blocked: int | None = None
        if collision is not None:
            if collision.__class__ is self._circuit_type:
                # Exact incremental verdict: first directed re-crossing.
                blocked = node.fwd_blocked
            else:
                memo = node.collision_memo
                if memo is None:
                    memo = node.collision_memo = {}
                try:
                    blocked = memo[collision]
                except KeyError:
                    blocked = memo[collision] = collision.blocked_at(node.traversals)
                except TypeError:  # unhashable model: compute, skip the memo
                    blocked = collision.blocked_at(node.traversals)
        return ProbeInfo(
            PathStatus.DELIVERED,
            len(node.traversals),
            node.current.node,
            blocked,
            node.traversals,
        )

    def loopback_info(
        self,
        h0: str,
        turns: Iterable[int],
        collision: "CollisionModel | None" = None,
    ) -> ProbeInfo:
        """The switch-probe ``a1..ak 0 -ak..-a1`` from the forward walk only.

        When the forward walk ends in flight at a switch, the bounce turn 0
        re-crosses the entry wire and every ``-a_i`` provably retraces the
        forward hop it negates (out-port ``p_i + a_i - a_i = p_i``, a wire
        that exists because the forward pass crossed it), terminating back
        at ``h0`` — so the loopback is DELIVERED with the forward traversals
        followed by their exact reversal, and no return-half trie nodes are
        ever built. The three failure shapes match the pure function: a
        forward-half failure fails identically, and a forward walk that
        lands on a host consumes the bounce as HIT_HOST_TOO_SOON.
        """
        node = self._walk(h0, tuple(turns))
        self._evaluations += 1
        if node.status is not None:
            return ProbeInfo(node.status, len(node.traversals), None, None, node.traversals)
        assert node.current is not None
        if node.current_is_host:
            # The bounce turn arrives with the message already at a host.
            return ProbeInfo(
                PathStatus.HIT_HOST_TOO_SOON,
                len(node.traversals),
                None,
                None,
                node.traversals,
            )
        if collision is not None and collision.__class__ is self._circuit_type:
            # Exact incremental verdict. The forward channels are all
            # distinct past ``fwd_blocked``'s check, so the loopback's
            # first re-crossing is either the forward one or the earliest
            # retrace of a wire the forward pass crossed both ways — the
            # retrace visits reverses in backward order, so the *largest*
            # such forward index blocks first, at ``2m - 1 - last_rev``.
            m = len(node.traversals)
            if node.fwd_blocked is not None:
                blocked = node.fwd_blocked
            elif node.last_rev is not None:
                blocked = 2 * m - 1 - node.last_rev
            else:
                blocked = None
            if blocked is not None:
                # A blocked probe's traversals are never consulted by the
                # services (no fault draw, no occupancy placement), so the
                # forward half stands in for the full loopback.
                return ProbeInfo(
                    PathStatus.DELIVERED, 2 * m, h0, blocked, node.traversals
                )
            lb = node.loopback_traversals
            if lb is None:
                lb = node.loopback_traversals = (
                    node.traversals + node.rev_traversals
                )
            return ProbeInfo(PathStatus.DELIVERED, len(lb), h0, None, lb)
        lb = node.loopback_traversals
        if lb is None:
            lb = node.loopback_traversals = (
                node.traversals + node.rev_traversals
            )
        blocked: int | None = None
        if collision is not None:
            memo = node.loopback_memo
            if memo is None:
                memo = node.loopback_memo = {}
            try:
                blocked = memo[collision]
            except KeyError:
                blocked = memo[collision] = collision.blocked_at(lb)
            except TypeError:  # unhashable model: compute, skip the memo
                blocked = collision.blocked_at(lb)
        return ProbeInfo(PathStatus.DELIVERED, len(lb), h0, blocked, lb)
