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


@dataclass(frozen=True, slots=True)
class EvalCacheStats:
    """Snapshot of an :class:`IncrementalPathEvaluator`'s counters."""

    hits: int = 0
    misses: int = 0
    #: Flushes: a topology move seen by a walk, or the node backstop.
    invalidations: int = 0
    evaluations: int = 0
    nodes: int = 0
    #: Trie nodes dropped across all flushes.
    nodes_dropped: int = 0
    #: Always 0; benchmarks/e2e/spans.py still reads it by name.
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
        # for a root. Ancestors carry the deps of earlier hops, so the
        # deps on a node's root path are its walk's whole footprint —
        # which is what :meth:`IncrementalPathEvaluator.touches` reads.
        # ILLEGAL_TURN and HIT_HOST_TOO_SOON read only radix/kind
        # (immutable while the node exists; removal is covered by the
        # ancestor that crossed into the node), so their dep is empty.
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


class IncrementalPathEvaluator:
    """Prefix-trie cache over :func:`evaluate_route`, for one mapping run.

    Keyed on ``(source host, turns-prefix)``: each trie node stores the
    walk state after consuming that prefix, so evaluating ``turns + (a,)``
    right after ``turns`` costs one switch-hop instead of ``len(turns)+1``.
    That is exactly the access pattern of the mapper's explore loop, which
    extends known probe strings one turn at a time. Every walk descends
    from its root.

    Correctness is guarded by the network's epoch counter: a walk that
    finds ``net.topology_epoch`` moved flushes the whole trie first
    (:meth:`invalidate`, the same routine the node backstop uses). Every
    remap cycle builds a fresh probe stack, and so a fresh trie; only a
    topology change in the middle of a run reaches the flush. A fault
    reconfiguration needs no invalidation and is not watched: cached walks
    never consult the fault model — kill decisions are drawn fresh per
    probe by the services. Results remain byte-identical to the pure
    function — including the ``ValueError`` on a non-host source.
    """

    def __init__(self, net: Network, *, max_nodes: int = 1_000_000) -> None:
        self._net = net
        self._max_nodes = max_nodes
        # Resolved here (not at module level) to avoid an import cycle:
        # collision.py imports Traversal from this module.
        from repro.simulator.collision import CircuitModel

        self._circuit_type = CircuitModel
        self._roots: dict[str, _TrieNode] = {}
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
        self._nodes_dropped = 0

    @property
    def stats(self) -> EvalCacheStats:
        return EvalCacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            evaluations=self._evaluations,
            nodes=self._n_nodes,
            nodes_dropped=self._nodes_dropped,
        )

    def invalidate(self) -> None:
        """Drop every cached walk (counted in ``stats.invalidations``)."""
        self._roots.clear()
        self._hops.clear()
        self._nodes_dropped += self._n_nodes
        self._n_nodes = 0
        self._invalidations += 1
        self._topo_epoch = self._net.topology_epoch

    def touches(
        self,
        h0: str,
        turns: Iterable[int],
        endpoints: frozenset[Endpoint] | set[Endpoint],
    ) -> bool:
        """Does this route's footprint intersect the given wire ends?

        The footprint of a route is every wire end its traversals cross
        *plus* the end its failure (if any) is pinned to: a NO_SUCH_WIRE
        verdict depends on the computed output port staying unwired, and a
        NOT_ATTACHED verdict on the source's port 0 staying free — a wire
        plugged there later changes the answer. A route whose footprint is
        disjoint from a mutation delta provably evaluates identically
        before and after the mutation (the walk consults the network only
        through these ends).

        Walks (and therefore caches) the route like any evaluation, then
        checks the ``dep`` of every node on its root path. Purely local
        computation: no probe is charged.
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
            self.invalidate()
        return child

    def _walk(self, h0: str, seq: tuple[int, ...]) -> _TrieNode:
        """Follow ``seq`` down from ``h0``'s root, extending where the trie
        ends; stops at the first absorbing node (every extension of a
        failed prefix is the identical failure)."""
        if self._net.topology_epoch != self._topo_epoch:
            self.invalidate()
        node = self._root(h0)
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
