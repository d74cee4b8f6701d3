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



class _Hop:
    """One directed wire half, read from the network once per trie generation.

    The evaluator's hop table holds one record per source end ``(node,
    out_port)``; every trie node whose step crosses that half points at the
    same record, so the far end, its kind and radix, and the forward and
    reverse :class:`Traversal` exist once however many cached walks (and
    :class:`ProbeInfo` tuples) cross the wire. ``dep`` is the two wire ends
    the crossing read; ``cid`` / ``rcid`` are small ints naming this
    channel and its reverse — an id stands for a *source end* and is never
    handed to another, and a source end has one wire at a time, so within
    one walk equal ids mean the same directed channel.
    """

    __slots__ = ("dst", "dst_is_host", "dst_radix", "fwd", "rev", "dep", "cid", "rcid")

    def __init__(
        self,
        src: PortRef,
        dst: PortRef,
        dst_is_host: bool,
        dst_radix: int,
        cid: int,
        rcid: int,
    ) -> None:
        self.dst = dst
        self.dst_is_host = dst_is_host
        self.dst_radix = dst_radix
        self.fwd = Traversal(src, dst)
        self.rev = Traversal(dst, src)
        self.dep: tuple[Endpoint, Endpoint] = (
            (src.node, src.port),
            (dst.node, dst.port),
        )
        self.cid = cid
        self.rcid = rcid


class _TrieNode:
    """One cached walk state: the message after consuming a turns-prefix.

    A node is its parent plus the one :class:`_Hop` its own step crossed:
    the message sits at ``hop.dst`` after ``depth`` wire crossings.
    ``status`` is ``None`` while the walk is still in flight; otherwise the
    node is *absorbing* — the prefix already failed (``hop`` is ``None``,
    ``depth`` is the parent's), every extension yields the identical
    failure, and children are never materialized past it. The traversal
    tuple is not stored: :meth:`traversals` rebuilds it from the parent
    chain for the few readers that want it.
    """

    __slots__ = (
        "parent",
        "hop",
        "depth",
        "status",
        "failed_at",
        "dep",
        "fwd_blocked",
        "last_rev",
        "chans",
        "children",
        "memo",
    )

    def __init__(
        self,
        parent: "_TrieNode | None",
        hop: _Hop | None,
        depth: int,
        status: PathStatus | None,
        failed_at: int | None,
        dep: tuple[Endpoint, ...],
    ) -> None:
        self.parent = parent
        self.hop = hop
        self.depth = depth
        self.status = status
        self.failed_at = failed_at
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
        # Incremental circuit-model state (in-flight nodes only): the index
        # of the first directed re-crossing (None while all channels are
        # distinct), the largest index whose reverse channel was also
        # crossed (drives the loopback verdict: a retrace re-crosses every
        # wire backwards), and the ids of the channels crossed so far — a
        # handful of ints, no longer extended once the worm has blocked.
        self.fwd_blocked: int | None = None
        self.last_rev: int | None = None
        self.chans: tuple[int, ...] = ()
        # Both created on first use: most nodes are leaves, and only a
        # non-circuit collision model ever memoizes a verdict (keyed
        # ``(model, loopback?)``, see :meth:`blocked_at`).
        self.children: dict[int, _TrieNode] | None = None
        self.memo: dict[tuple[object, bool], int | None] | None = None

    def traversals(self, loopback: bool = False) -> tuple[Traversal, ...]:
        """The crossings of this prefix, or of its switch-probe loopback
        (out along the prefix, bounce, retrace every hop backwards)."""
        back: list[_Hop] = []
        node: _TrieNode | None = self
        while node is not None:
            if node.hop is not None:
                back.append(node.hop)
            node = node.parent
        out = tuple([hop.fwd for hop in reversed(back)])
        return out + tuple([hop.rev for hop in back]) if loopback else out

    def blocked_at(self, collision: "CollisionModel", loopback: bool) -> int | None:
        """A collision model's verdict on :meth:`traversals`.

        Memoized per node per model instance (models are frozen
        dataclasses, hence hashable); an unhashable custom model simply
        skips the memo.
        """
        memo = self.memo
        if memo is None:
            memo = self.memo = {}
        key = (collision, loopback)
        try:
            return memo[key]
        except KeyError:
            blocked = memo[key] = collision.blocked_at(self.traversals(loopback))
        except TypeError:  # unhashable model: compute, skip the memo
            blocked = collision.blocked_at(self.traversals(loopback))
        return blocked


class ProbeInfo:
    """The slice of a path evaluation the probe hot path actually needs.

    Unlike :class:`PathResult` this carries no node list, and constructing
    one is O(1): ``traversals`` is either an explicit tuple (the
    pure-function arm) or the evaluator's trie node, from whose parent
    chain the tuple is built on first read — its :class:`Traversal` objects
    are the hop table's, shared with every probe crossing the same wire
    half. ``blocked`` is the collision model's verdict (index of the first
    self-blocking traversal) and is only meaningful when ``ok``.
    """

    __slots__ = ("status", "hops", "delivered_to", "blocked", "_traversals")

    def __init__(
        self,
        status: PathStatus,
        hops: int,
        delivered_to: str | None,
        blocked: int | None,
        traversals: "tuple[Traversal, ...] | _TrieNode",
    ) -> None:
        self.status = status
        self.hops = hops
        self.delivered_to = delivered_to
        self.blocked = blocked
        self._traversals = traversals

    @property
    def ok(self) -> bool:
        return self.status is PathStatus.DELIVERED

    @property
    def traversals(self) -> tuple[Traversal, ...]:
        got = self._traversals
        if isinstance(got, _TrieNode):
            # Only a delivered loopback has more hops than the forward walk
            # it was answered from.
            got = self._traversals = got.traversals(self.hops > got.depth)
        return got

    def _fields(self) -> tuple:
        return (self.status, self.hops, self.delivered_to, self.blocked, self.traversals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbeInfo):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            "ProbeInfo(status={!r}, hops={!r}, delivered_to={!r}, "
            "blocked={!r}, traversals={!r})".format(*self._fields())
        )


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
        if n.children:
            stack.extend(n.children.values())


class IncrementalPathEvaluator:
    """Prefix-trie cache over :func:`evaluate_route`.

    Keyed on ``(source host, turns-prefix)``: each trie node stores the
    walk state after consuming that prefix, so evaluating ``turns + (a,)``
    right after ``turns`` costs one switch-hop instead of ``len(turns)+1``.
    That is exactly the access pattern of the mapper's explore loop, which
    extends known probe strings one turn at a time.

    Correctness is guarded by the network's epoch counter plus its delta
    journal. When ``net.topology_epoch`` moves, the evaluator asks the
    network *which wire ends* changed (:meth:`Network.affected_since`) and
    drops only the subtrees whose cached walk touched one of them — each
    trie node records the ends its own step read (``_TrieNode.dep``), so
    "no node on the root path has an affected dep" proves the whole cached
    walk still evaluates identically. Only when the journal cannot answer
    (window exceeded) does the evaluator fall back to the wholesale flush.
    A fault reconfiguration needs no invalidation and is not watched:
    cached walks never consult the fault model — kill decisions are drawn
    fresh per probe by the services. Results remain byte-identical to the
    pure function — including the ``ValueError`` on a non-host source.
    """

    def __init__(self, net: Network, *, max_nodes: int = 1_000_000) -> None:
        self._net = net
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
        # The hop table: source end ``(node, out_port)`` -> the wire half
        # leaving it, filled on demand (None for an unwired port) and
        # dropped with the trie on invalidation. Plain-tuple keys hash much
        # faster than PortRef dataclasses on the per-probe extension path.
        self._hops: dict[Endpoint, _Hop | None] = {}
        # Channel ids, one per source end ever crossed. Never cleared: a
        # chain detached by the node backstop is still being extended, and
        # must not meet a recycled id.
        self._chan_ids: dict[Endpoint, int] = {}
        self._topo_epoch = net.topology_epoch
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
        self._hops.clear()
        self._n_nodes = 0
        self._invalidations += 1
        self._topo_epoch = self._net.topology_epoch

    def invalidate_endpoints(
        self, endpoints: frozenset[Endpoint] | set[Endpoint]
    ) -> int:
        """Drop exactly the cached walks that touched the given wire ends.

        A subtree survives iff no node on its root path has a ``dep`` in
        ``endpoints`` — sound because a walk reads the network only
        through its deps (see ``_TrieNode.dep``). Sibling hints that point
        into a dropped subtree are pruned with it; hop records are popped
        for exactly the affected keys (a changed end may have gone from
        wired to free or vice versa — the table caches both answers).
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
                children = stack.pop().children
                if not children:
                    continue
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
            self._hops.pop(key, None)
        self._surgical += 1
        self._nodes_dropped += dropped
        return dropped

    def _refresh(self) -> None:
        """Catch the cache up after ``net.topology_epoch`` moved.

        The move is resolved surgically through the network's delta
        journal; an unanswerable (out-of-window) or unbounded delta falls
        back to the wholesale flush.
        """
        net = self._net
        delta = net.affected_since(self._topo_epoch)
        if delta is None or delta.unbounded:
            self.invalidate()
            return
        if delta.removed or delta.added:
            self.invalidate_endpoints(delta.endpoints)
        self._topo_epoch = net.topology_epoch

    def touches(
        self,
        h0: str,
        turns: Iterable[int],
        endpoints: frozenset[Endpoint] | set[Endpoint],
    ) -> bool:
        """Trie-backed :func:`route_touches`: does this route's footprint
        intersect the given wire ends?

        Walks (and therefore caches) the route like any evaluation, then
        checks the ``dep`` of every node on its root path: both ends of
        each crossed wire plus, for an absorbing verdict, the end the
        failure is pinned to. Purely local computation: no probe is
        charged.
        """
        node: _TrieNode | None = self._walk(h0, tuple(turns))
        while node is not None:
            for end in node.dep:
                if end in endpoints:
                    return True
            node = node.parent
        return False

    def _read_hop(self, key: Endpoint) -> _Hop | None:
        """Read the wire half leaving ``key`` into the hop table."""
        net = self._net
        dst = net.neighbor_at(*key)
        hop = None
        if dst is not None:
            ids = self._chan_ids
            hop = _Hop(
                PortRef(*key),
                dst,
                net.is_host(dst.node),
                net.radix(dst.node),
                ids.setdefault(key, len(ids)),
                ids.setdefault((dst.node, dst.port), len(ids)),
            )
        self._hops[key] = hop
        return hop

    def _root(self, h0: str) -> _TrieNode:
        root = self._roots.get(h0)
        if root is not None:
            self._hits += 1
            return root
        if not self._net.is_host(h0):
            raise ValueError(f"source {h0} is not a host")
        key = (h0, HOST_PORT)
        hop = self._hops[key] if key in self._hops else self._read_hop(key)
        if hop is None:
            root = _TrieNode(None, None, 0, PathStatus.NOT_ATTACHED, None, (key,))
        else:
            root = _TrieNode(None, hop, 1, None, None, hop.dep)
            root.chans = (hop.cid,)
        self._roots[h0] = root
        self._n_nodes += 1
        self._misses += 1
        return root

    def _extend(self, parent: _TrieNode, turn: int, i: int) -> _TrieNode:
        at = parent.hop
        assert at is not None  # in-flight nodes always have a position
        if at.dst_is_host:
            child = _TrieNode(
                parent, None, parent.depth, PathStatus.HIT_HOST_TOO_SOON, i, ()
            )
        else:
            dst = at.dst
            out_port = dst.port + turn  # NOT modulo the radix (Section 2.2)
            if not 0 <= out_port < at.dst_radix:
                child = _TrieNode(
                    parent, None, parent.depth, PathStatus.ILLEGAL_TURN, i, ()
                )
            else:
                key = (dst.node, out_port)
                hops = self._hops
                hop = hops[key] if key in hops else self._read_hop(key)
                if hop is None:
                    child = _TrieNode(
                        parent, None, parent.depth, PathStatus.NO_SUCH_WIRE, i, (key,)
                    )
                else:
                    child = _TrieNode(
                        parent, hop, parent.depth + 1, None, None, hop.dep
                    )
                    # Extend the circuit-model state by one channel.
                    if parent.fwd_blocked is not None:
                        child.fwd_blocked = parent.fwd_blocked
                    elif hop.cid in parent.chans:
                        child.fwd_blocked = i + 1  # +1: the attach hop
                    else:
                        child.chans = parent.chans + (hop.cid,)
                        child.last_rev = (
                            i + 1 if hop.rcid in parent.chans else parent.last_rev
                        )
        children = parent.children
        if children is None:
            parent.children = {turn: child}
        else:
            children[turn] = child
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

    def _descend(self, node: _TrieNode, seq: tuple[int, ...]) -> _TrieNode:
        """Follow ``seq`` down from a root, extending where the trie ends;
        stops at the first absorbing node (every extension of a failed
        prefix is the identical failure)."""
        if node.status is not None:
            return node
        for i, turn in enumerate(seq):
            children = node.children
            child = children.get(turn) if children else None
            if child is None:
                child = self._extend(node, turn, i)
            else:
                self._hits += 1
            node = child
            if node.status is not None:
                break
        return node

    def _walk(self, h0: str, seq: tuple[int, ...]) -> _TrieNode:
        if self._net.topology_epoch != self._topo_epoch:
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
                children = node.children
                child = children.get(turn) if children else None
                if child is None:
                    child = self._extend(node, turn, len(seq) - 1)
                else:
                    self._hits += 1
                return child
        return self._descend(self._root(h0), seq)

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
        lifetime (an epoch move drops both), so a mid-batch topology
        mutation falls back to a fresh walk from the root — and so no hint
        is registered when the node backstop flushed the trie during this
        very walk: the node is then detached from ``_roots``, where no
        surgical invalidation could ever find it. Returns the number of
        siblings the hint covers.
        """
        seq = tuple(prefix)
        if self._net.topology_epoch != self._topo_epoch:
            self._refresh()
        if (h0, seq) in self._hints:
            # Re-primed mid-run (the caller saw a hit): the prefix node is
            # already hinted, nothing to walk.
            return sum(1 for _ in turns)
        flushes = self._invalidations
        node = self._descend(self._root(h0), seq)
        if self._invalidations == flushes:
            self._hints[(h0, seq)] = node
        return sum(1 for _ in turns)

    def evaluate(self, h0: str, turns: Iterable[int]) -> PathResult:
        """Drop-in replacement for :func:`evaluate_route`."""
        node = self._walk(h0, tuple(turns))
        self._evaluations += 1
        status, delivered_to = node.status, None
        if status is None:
            at = node.hop
            assert at is not None
            if at.dst_is_host:
                status, delivered_to = PathStatus.DELIVERED, at.dst.node
            else:
                status = PathStatus.STRANDED
        traversals = node.traversals()
        return PathResult(
            status=status,
            nodes=[h0, *(tr.dst.node for tr in traversals)],
            traversals=list(traversals),
            delivered_to=delivered_to,
            failed_at_turn=node.failed_at,
        )

    def probe_info(
        self,
        h0: str,
        turns: Iterable[int],
        collision: "CollisionModel | None" = None,
    ) -> ProbeInfo:
        """Evaluate in O(1) past the walk, with the collision verdict.

        The circuit model's verdict is the walk's own incremental state;
        any other model reads the traversals, memoized per trie node.
        """
        node = self._walk(h0, tuple(turns))
        self._evaluations += 1
        if node.status is not None:
            return ProbeInfo(node.status, node.depth, None, None, node)
        at = node.hop
        assert at is not None
        if not at.dst_is_host:
            return ProbeInfo(PathStatus.STRANDED, node.depth, None, None, node)
        blocked: int | None = None
        if collision is not None:
            if collision.__class__ is self._circuit_type:
                # Exact incremental verdict: first directed re-crossing.
                blocked = node.fwd_blocked
            else:
                blocked = node.blocked_at(collision, False)
        return ProbeInfo(
            PathStatus.DELIVERED, node.depth, at.dst.node, blocked, node
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
        at ``h0`` — so the loopback is DELIVERED over the forward traversals
        followed by their exact reversal, ``2m`` hops, and no return-half
        trie nodes are ever built. The three failure shapes match the pure
        function: a forward-half failure fails identically, and a forward
        walk that lands on a host consumes the bounce as HIT_HOST_TOO_SOON.
        """
        node = self._walk(h0, tuple(turns))
        self._evaluations += 1
        if node.status is not None:
            return ProbeInfo(node.status, node.depth, None, None, node)
        at = node.hop
        assert at is not None
        if at.dst_is_host:
            # The bounce turn arrives with the message already at a host.
            return ProbeInfo(
                PathStatus.HIT_HOST_TOO_SOON, node.depth, None, None, node
            )
        m = node.depth
        blocked: int | None = None
        if collision is not None:
            if collision.__class__ is not self._circuit_type:
                blocked = node.blocked_at(collision, True)
            elif node.fwd_blocked is not None:
                blocked = node.fwd_blocked
            elif node.last_rev is not None:
                # Exact incremental verdict. The forward channels are all
                # distinct past ``fwd_blocked``'s check, so the loopback's
                # first re-crossing is the earliest retrace of a wire the
                # forward pass crossed both ways — the retrace visits
                # reverses in backward order, so the *largest* such
                # forward index blocks first.
                blocked = 2 * m - 1 - node.last_rev
        return ProbeInfo(PathStatus.DELIVERED, 2 * m, h0, blocked, node)
