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
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple

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

#: Trie nodes an evaluator holds before its backstop flushes the trie.
MAX_TRIE_NODES = 1_000_000

#: An evaluator's last walk before it has walked: no reshape count, source
#: or sequence matches it.
_NO_WALK = (-1, None, None, 0, None, 0)

#: Bits of a trie node's channel mask: a mask below 2**60 is a two-digit
#: int, a third of the tuple of channel ids it stands for.
_SEEN_BITS = 60


class PathStatus(enum.Enum):
    """Outcome of evaluating a routing address."""

    DELIVERED = "delivered"
    ILLEGAL_TURN = "illegal turn"
    NO_SUCH_WIRE = "no such wire"
    HIT_HOST_TOO_SOON = "hit a host too soon"
    STRANDED = "stranded in network"
    NOT_ATTACHED = "source host not attached"


class Traversal(NamedTuple):
    """One directed wire crossing, a directed channel: from ``src`` out to
    ``dst``. A plain tuple underneath, so it equals ``(src, dst)``."""

    src: PortRef
    dst: PortRef


@dataclass(slots=True)
class PathResult:
    """The message path (possibly partial) and its outcome."""

    status: PathStatus
    nodes: list[str] = field(default_factory=list)
    traversals: list[Traversal] = field(default_factory=list)
    delivered_to: str | None = None
    failed_at_turn: int | None = None

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
    """Snapshot of an :class:`IncrementalPathEvaluator`'s counters.

    Every count but ``nodes`` is the evaluator's own walks since it
    attached; ``nodes`` is the size of the network's shared trie.
    """

    hits: int = 0
    misses: int = 0
    #: Topology moves a walk caught up with (each a prune or a flush),
    #: plus node-backstop and explicit flushes.
    invalidations: int = 0
    nodes: int = 0
    #: Trie nodes dropped by those prunes and flushes.
    nodes_dropped: int = 0
    #: Always 0; benchmarks/e2e/spans.py still reads it by name.
    hinted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0



class _Columns:
    """The trie's storage: one entry per node in each of parallel lists.

    A node is an int id, and ids follow creation order, so a parent always
    precedes its children. Node 0 is a sentinel standing above every root;
    it is never walked and never dropped. Per node:

    - ``parent`` and ``depth``: the message sits at the far end of the
      node's own step after ``depth`` wire crossings;
    - ``hop``: the hop row the node's own step read, or -1 for an
      ILLEGAL_TURN or HIT_HOST_TOO_SOON verdict, which reads only radix and
      kind;
    - ``status``: None while the walk is in flight; otherwise the node is
      *absorbing*: the prefix already failed (``depth`` is the parent's),
      every extension yields the identical failure, and no child is ever
      made past it;
    - ``key``: the turn the node's step took (its source host for a
      root), or None once a prune dropped it;
    - the incremental circuit-model state of an in-flight node: the index
      of the first directed re-crossing (None while all channels are
      distinct), the largest index whose reverse channel was also crossed
      (drives the loopback verdict: a retrace re-crosses every wire
      backwards), and ``seen``, a mask of the channels crossed so far
      (bit ``id % _SEEN_BITS`` per channel id), no longer extended once
      the worm has blocked. Distinct ids may share a bit, so a set bit is
      confirmed along the parent chain (:meth:`crossed`), and a clear bit
      proves the channel uncrossed.

    ``children`` maps a turn to the ``{parent: child}`` dict of every step
    that took it: a handful of dicts of ints, and a hit costs two lookups
    and no allocation. The hop table ``hops`` maps a source end ``(node,
    out_port)`` to its row in ``rows``, the tuple ``(node, port, is_host,
    radix, cid, rcid, dep, cid_bit, rcid_bit)``: the far end, its kind and
    radix, the channel ids of the wire half and of its reverse, the wire
    ends a step through the row reads (both ends of the wire; the probed
    end alone when it is unwired, ``node`` None), and the two ids'
    ``seen`` bits. A channel id stands for a *source end* and is never
    handed to another, and a source end has one wire at a time, so within
    one walk equal ids mean the same directed channel.

    Three caches fill on first read: the forward and reverse
    :class:`Traversal` of a row (``crossings``), shared by every walk and
    :class:`ProbeInfo` crossing that wire half; a node's footprint
    (``foot``); and a collision model's verdict (``memo``).

    Nothing here references a node object, so no node is tracked by the
    cycle collector and a dropped trie is freed by reference counts.
    """

    __slots__ = (
        "parent",
        "hop",
        "depth",
        "status",
        "key",
        "fwd_blocked",
        "last_rev",
        "seen",
        "children",
        "hops",
        "rows",
        "crossings",
        "foot",
        "memo",
    )

    def __init__(self) -> None:
        self.parent: list[int] = [0]
        self.hop: list[int] = [-1]
        self.depth: list[int] = [0]
        self.status: list[PathStatus | None] = [None]
        self.key: list[int | str | None] = [""]
        self.fwd_blocked: list[int | None] = [None]
        self.last_rev: list[int | None] = [None]
        self.seen: list[int] = [0]
        self.children: defaultdict[int, dict[int, int]] = defaultdict(dict)
        self.hops: dict[tuple[str, int], int] = {}
        self.rows: list[tuple] = []
        self.crossings: list[tuple[Traversal, Traversal] | None] = []
        self.foot: dict[int, frozenset[tuple[str, int]]] = {0: frozenset()}
        self.memo: dict[tuple[int, object, bool], int | None] = {}

    def add(
        self,
        parent: int,
        hop: int,
        depth: int,
        status: PathStatus | None,
        key: int | str,
        fwd_blocked: int | None,
        last_rev: int | None,
        seen: int,
    ) -> int:
        """Append one node; its id."""
        node = len(self.key)
        self.parent.append(parent)
        self.hop.append(hop)
        self.depth.append(depth)
        self.status.append(status)
        self.key.append(key)
        self.fwd_blocked.append(fwd_blocked)
        self.last_rev.append(last_rev)
        self.seen.append(seen)
        return node

    def dep(self, node: int) -> tuple[tuple[str, int], ...]:
        """The wire ends this node's own step read from the network.

        The deps on a node's root path are its walk's whole footprint,
        which is what :meth:`IncrementalPathEvaluator.touches` reads.
        """
        hop = self.hop[node]
        return self.rows[hop][6] if hop >= 0 else ()

    def crossing(self, hop: int) -> tuple[Traversal, Traversal]:
        """The forward and reverse :class:`Traversal` of a wired row."""
        pair = self.crossings[hop]
        if pair is None:
            src, dst = self.rows[hop][6]
            fwd = Traversal(PortRef(*src), PortRef(*dst))
            pair = self.crossings[hop] = (fwd, Traversal(fwd.dst, fwd.src))
        return pair

    def traversals(self, node: int, loopback: bool) -> tuple[Traversal, ...]:
        """The crossings of a node's prefix, or of its switch-probe loopback
        (out along the prefix, bounce, retrace every hop backwards)."""
        parent, hop = self.parent, self.hop
        if self.status[node] is not None:
            node = parent[node]  # an absorbing step crossed nothing
        back: list[tuple[Traversal, Traversal]] = []
        while node:
            back.append(self.crossing(hop[node]))
            node = parent[node]
        out = tuple([pair[0] for pair in reversed(back)])
        return out + tuple([pair[1] for pair in back]) if loopback else out

    def crossed(self, node: int, channel: int) -> bool:
        """Did the walk to in-flight ``node`` cross ``channel``?"""
        parent, hop, rows = self.parent, self.hop, self.rows
        while node:
            if rows[hop[node]][4] == channel:
                return True
            node = parent[node]
        return False

    def footprint(self, node: int) -> frozenset[tuple[str, int]]:
        """Every wire end this node's walk read: ``dep`` over its root path.

        Cached per node on first read. A prune keeps only nodes whose root
        path it did not touch, so a kept footprint stays exact.
        """
        foot = self.foot
        got = foot.get(node)
        if got is not None:
            return got
        parent = self.parent
        chain = [node]
        node = parent[node]
        while (got := foot.get(node)) is None:
            chain.append(node)
            node = parent[node]
        for link in reversed(chain):
            dep = self.dep(link)
            if dep:
                got = got.union(dep)
            foot[link] = got
        return got

    def blocked_at(
        self, node: int, collision: "CollisionModel", loopback: bool
    ) -> int | None:
        """A collision model's verdict on :meth:`traversals`.

        Memoized per node per model instance (models are frozen
        dataclasses, hence hashable).
        """
        key = (node, collision, loopback)
        try:
            return self.memo[key]
        except KeyError:
            blocked = self.memo[key] = collision.blocked_at(
                self.traversals(node, loopback)
            )
        return blocked

    def prune(self, dead: set[int], roots: dict[str, int]) -> tuple[int, int]:
        """Drop every node whose own step read a row in ``dead``, with its
        subtree, in one pass in id order; returns (kept, dropped).

        A dropped node keeps its parent and hop, so a :class:`ProbeInfo`
        answered from it still reads its traversals.
        """
        parent, hop, key = self.parent, self.hop, self.key
        children = self.children
        kept = dropped = 0
        for node in range(1, len(key)):
            k = key[node]
            if k is None:
                continue
            up = parent[node]
            if hop[node] in dead or key[up] is None:
                key[node] = None
                if up:
                    del children[k][up]
                else:
                    del roots[k]
                dropped += 1
            else:
                kept += 1
        if dropped:
            self.foot = {n: f for n, f in self.foot.items() if key[n] is not None}
            self.memo = {k: v for k, v in self.memo.items() if key[k[0]] is not None}
        return kept, dropped

    def compacted(self, roots: dict[str, int]) -> "_Columns":
        """The live nodes and the rows the hop table names, renumbered in
        id order, so parents still precede children; ``roots`` is
        rewritten to the new ids."""
        new = _Columns()
        rows: dict[int, int] = {}
        for end, hop in self.hops.items():
            rows[hop] = new.hops[end] = len(new.rows)
            new.rows.append(self.rows[hop])
            new.crossings.append(self.crossings[hop])
        ids = [0] * len(self.key)
        old_parent, old_hop = self.parent, self.hop
        for node in range(1, len(self.key)):
            k = self.key[node]
            if k is None:
                continue
            up = ids[old_parent[node]]
            hop = old_hop[node]
            ids[node] = new.add(
                up,
                rows[hop] if hop >= 0 else -1,
                self.depth[node],
                self.status[node],
                k,
                self.fwd_blocked[node],
                self.last_rev[node],
                self.seen[node],
            )
            if up:
                new.children[k][up] = ids[node]
            else:
                roots[k] = ids[node]
        # A prune keeps the caches to live nodes (and the sentinel's foot).
        new.foot.update((ids[n], f) for n, f in self.foot.items() if n)
        new.memo = {(ids[n], *rest): v for (n, *rest), v in self.memo.items()}
        return new


class ProbeInfo:
    """The slice of a path evaluation the probe hot path actually needs.

    Unlike :class:`PathResult` this carries no node list, and constructing
    one is O(1): it is answered from trie node ``node`` of ``cols``, and
    ``traversals`` is read from the node's parent chain on first use. Its
    :class:`Traversal` objects are the hop rows', shared with every probe
    crossing the same wire half. ``blocked`` is the collision model's
    verdict (index of the first self-blocking traversal) and is only
    meaningful when ``ok``.
    """

    __slots__ = ("status", "hops", "delivered_to", "blocked", "_traversals", "_node")

    def __init__(
        self,
        status: PathStatus,
        hops: int,
        delivered_to: str | None,
        blocked: int | None,
        cols: _Columns,
        node: int,
    ) -> None:
        self.status = status
        self.hops = hops
        self.delivered_to = delivered_to
        self.blocked = blocked
        self._traversals: tuple[Traversal, ...] | _Columns = cols
        self._node = node

    @property
    def ok(self) -> bool:
        return self.status is PathStatus.DELIVERED

    @property
    def traversals(self) -> tuple[Traversal, ...]:
        got = self._traversals
        if got.__class__ is _Columns:
            cols: _Columns = got  # type: ignore[assignment]
            node = self._node
            # Only a delivered loopback has more hops than the forward walk
            # it was answered from.
            got = self._traversals = cols.traversals(node, self.hops > cols.depth[node])
        return got  # type: ignore[return-value]

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


class _Trie:
    """The walks cached for one network, shared by every evaluator on it.

    Held by the network it walks (``Network.walk_trie``) and holding no
    reference back, so it is freed with the network. ``epoch`` is the
    topology epoch its walks are exact for; ``nodes`` counts the trie;
    ``roots`` maps a source host to its root in ``cols``; ``reshapes``
    counts the prunes, flushes and compactions so far, after any of which
    a node id read before may name another node or none.
    """

    __slots__ = ("roots", "chan_ids", "epoch", "nodes", "cols", "reshapes")

    def __init__(self, epoch: int) -> None:
        self.reshapes = 0
        self.roots: dict[str, int] = {}
        # Channel ids, one per source end ever crossed. Never cleared: a
        # chain detached by the node backstop is still being extended, and
        # must not meet a recycled id.
        self.chan_ids: dict[tuple[str, int], int] = {}
        self.epoch = epoch
        self.nodes = 0
        self.cols = _Columns()


class IncrementalPathEvaluator:
    """Prefix-trie cache over :func:`evaluate_route`, one trie per network.

    Keyed on ``(source host, turns-prefix)``: each trie node stores the
    walk state after consuming that prefix, so evaluating ``turns + (a,)``
    right after ``turns`` costs one switch-hop instead of ``len(turns)+1``.
    That is exactly the access pattern of the mapper's explore loop, which
    extends known probe strings one turn at a time. A walk descends from
    its root, unless it repeats the last walk or is its sibling
    (:meth:`_walk`).

    The trie belongs to the network: every evaluator built on one network
    (every probe service, so every cycle a remap daemon runs on it) reads
    and extends the same trie, and the trie is freed with the network. An
    evaluator owns only its counters (:attr:`stats`).

    Correctness is guarded by the network's epoch counter. A walk that
    finds ``net.topology_epoch`` moved first prunes the trie by the
    journal's delta since the trie's epoch: every node whose own step read
    a changed wire end goes with its subtree, and so does every hop-table
    entry keyed at one. A walk whose root path reads no changed end
    evaluates identically on the new network (the footprint argument of
    :meth:`touches`), so what is kept is exact. When the journal cannot
    answer (the epoch fell out of its window) the whole trie goes, through
    :meth:`invalidate`, the routine the node backstop calls. A fault
    reconfiguration needs no invalidation and is not watched: cached walks
    never consult the fault model — kill decisions are drawn fresh per
    probe by the services. Results remain byte-identical to the pure
    function — including the ``ValueError`` on a non-host source.
    """

    def __init__(self, net: Network) -> None:
        self._net = net
        # Resolved here (not at module level) to avoid an import cycle:
        # collision.py imports Traversal from this module.
        from repro.simulator.collision import CircuitModel

        self._circuit_type = CircuitModel
        trie = net.walk_trie
        if not isinstance(trie, _Trie):
            trie = net.walk_trie = _Trie(net.topology_epoch)
        self._trie = trie
        # The shared tables, bound once for the hot path; they are only
        # ever changed in place.
        self._roots = trie.roots
        self._chan_ids = trie.chan_ids
        # The storage the last walk ran in: the trie's, unless the node
        # backstop flushed it under that walk.
        self._cols = trie.cols
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._nodes_dropped = 0
        # The last walk: the trie's reshape count when it began, its
        # source and sequence object, the node it reached, the node one
        # turn short of that (None when the walk absorbed sooner) and the
        # hits a repeat of it counts.
        self._last: tuple = _NO_WALK

    @property
    def stats(self) -> EvalCacheStats:
        return EvalCacheStats(
            hits=self._hits,
            misses=self._misses,
            invalidations=self._invalidations,
            nodes=self._trie.nodes,
            nodes_dropped=self._nodes_dropped,
        )

    def invalidate(self) -> None:
        """Drop every cached walk (counted in ``stats.invalidations``)."""
        trie = self._trie
        trie.roots.clear()
        trie.cols = _Columns()
        self._nodes_dropped += trie.nodes
        trie.nodes = 0
        trie.reshapes += 1
        self._invalidations += 1
        trie.epoch = self._net.topology_epoch

    def _catch_up(self) -> None:
        """Bring the trie to the network's epoch: prune the walks the
        journal's delta touched, in one pass over the trie, or flush it
        when the journal cannot say what changed."""
        net, trie = self._net, self._trie
        delta = net.affected_since(trie.epoch)
        if delta is None:
            self.invalidate()
            return
        # A journaled wire change names both of the wire's ends, so a row
        # whose ``dep`` meets the change is exactly one keyed at a changed
        # end; every node the pass keeps holds its hop-table entry.
        cols = trie.cols
        hops = cols.hops
        dead = {hops.pop(end) for end in delta.removed | delta.added if end in hops}
        kept, dropped = cols.prune(dead, trie.roots)
        if len(cols.key) - 1 - kept > kept:
            # Dropped ids are never reused, so once they outnumber the
            # live ones the pass would mostly skip them: renumber.
            trie.cols = cols.compacted(trie.roots)
        trie.nodes = kept
        trie.epoch = net.topology_epoch
        trie.reshapes += 1
        self._invalidations += 1
        self._nodes_dropped += dropped

    def touches(
        self,
        h0: str,
        turns: Iterable[int],
        endpoints: frozenset[PortRef] | set[PortRef],
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
        tests the node's cached footprint. Purely local computation: no
        probe is charged.
        """
        node = self._walk(h0, tuple(turns))
        return not self._cols.footprint(node).isdisjoint(endpoints)

    def _read_row(self, cols: _Columns, end: tuple[str, int]) -> int:
        """Read the wire half leaving ``end`` into the hop table.

        A row holds its wire ends as plain tuples, never as
        :class:`PortRef`: the cycle collector untracks a plain tuple of
        strs and ints but never a tuple subclass, so the trie owns no
        tracked object per row.
        """
        net = self._net
        dst = net.neighbor_at(*end)
        if dst is None:
            row: tuple = (None, -1, False, 0, -1, -1, (end,), 0, 0)
        else:
            ids = self._chan_ids
            far = (dst.node, dst.port)
            cid = ids.setdefault(end, len(ids))
            rcid = ids.setdefault(far, len(ids))
            row = (
                dst.node,
                dst.port,
                net.is_host(dst.node),
                net.radix(dst.node),
                cid,
                rcid,
                (end, far),
                1 << cid % _SEEN_BITS,
                1 << rcid % _SEEN_BITS,
            )
        hop = cols.hops[end] = len(cols.rows)
        cols.rows.append(row)
        cols.crossings.append(None)
        return hop

    def _root(self, cols: _Columns, h0: str) -> int:
        """Make ``h0``'s root; :meth:`_walk` finds one already made."""
        if not self._net.is_host(h0):
            raise ValueError(f"source {h0} is not a host")
        end = (h0, HOST_PORT)
        hop = cols.hops.get(end)
        if hop is None:
            hop = self._read_row(cols, end)
        row = cols.rows[hop]
        if row[0] is None:
            root = cols.add(0, hop, 0, PathStatus.NOT_ATTACHED, h0, None, None, 0)
        else:
            root = cols.add(0, hop, 1, None, h0, None, None, row[7])
        self._roots[h0] = root
        self._trie.nodes += 1
        self._misses += 1
        return root

    def _extend(self, cols: _Columns, parent: int, turn: int, i: int) -> int:
        # The parent is in flight, so its row is wired.
        rows = cols.rows
        at = rows[cols.hop[parent]]
        depth = cols.depth[parent]
        hop, fwd_blocked, last_rev, seen = -1, None, None, 0
        if at[2]:
            status: PathStatus | None = PathStatus.HIT_HOST_TOO_SOON
        else:
            port = at[1] + turn
            if not 0 <= port < at[3]:  # NOT modulo the radix (Section 2.2)
                status = PathStatus.ILLEGAL_TURN
            else:
                end = (at[0], port)
                hop = cols.hops.get(end)
                if hop is None:
                    hop = self._read_row(cols, end)
                row = rows[hop]
                if row[0] is None:
                    status = PathStatus.NO_SUCH_WIRE
                else:
                    status = None
                    depth += 1
                    # Extend the circuit-model state by one channel.
                    fwd_blocked = cols.fwd_blocked[parent]
                    if fwd_blocked is None:
                        seen = cols.seen[parent]
                        if seen & row[7] and cols.crossed(parent, row[4]):
                            fwd_blocked = i + 1  # +1: the attach hop
                            seen = 0
                        else:
                            last_rev = (
                                i + 1
                                if seen & row[8] and cols.crossed(parent, row[5])
                                else cols.last_rev[parent]
                            )
                            seen |= row[7]
        # :meth:`_Columns.add`, inlined on the hot path.
        child = len(cols.key)
        cols.parent.append(parent)
        cols.hop.append(hop)
        cols.depth.append(depth)
        cols.status.append(status)
        cols.key.append(turn)
        cols.fwd_blocked.append(fwd_blocked)
        cols.last_rev.append(last_rev)
        cols.seen.append(seen)
        cols.children[turn][parent] = child
        trie = self._trie
        trie.nodes += 1
        self._misses += 1
        if trie.nodes > MAX_TRIE_NODES:
            # Backstop against unbounded growth on adversarial probe sets:
            # drop the trie; this walk finishes on the storage it began in,
            # which its answer keeps alive.
            self.invalidate()
        return child

    def _walk(self, h0: str, seq: tuple[int, ...]) -> int:
        """Follow ``seq`` down from ``h0``'s root, extending where the trie
        ends; stops at the first absorbing node (every extension of a
        failed prefix is the identical failure). The node is in
        ``self._cols``.

        The last walk is remembered until the trie is reshaped: the same
        sequence object again (the second half of a probe pair) is its
        node, and a sibling (equal but for the last turn) takes one step
        from the node one turn short. Either counts the hits the walk
        from the root would.
        """
        trie = self._trie
        if self._net.topology_epoch != trie.epoch:
            self._catch_up()
        reshapes, last_h0, last, node, up, repeat = self._last
        if reshapes == trie.reshapes and h0 == last_h0:
            if seq is last:
                self._hits += repeat
                return node
            n = len(seq)
            if n and n == len(last) and seq[:-1] == last[:-1]:
                if up is None:  # the last walk absorbed before its last turn
                    self._hits += repeat
                else:
                    cols = self._cols
                    turn = seq[-1]
                    node = cols.children[turn].get(up)
                    if node is None:
                        self._hits += n
                        node = self._extend(cols, up, turn, n - 1)
                    else:
                        self._hits += n + 1
                    repeat = n + 1
                self._last = (reshapes, h0, seq, node, up, repeat)
                return node
        reshapes = trie.reshapes
        cols = self._cols = trie.cols
        node = self._roots.get(h0)
        if node is None:
            node = self._root(cols, h0)
        else:
            self._hits += 1
        status = cols.status
        n = steps = len(seq)
        if status[node] is not None:
            steps = 0
        else:
            children = cols.children
            hits = 0
            for i, turn in enumerate(seq):
                child = children[turn].get(node)
                if child is None:
                    child = self._extend(cols, node, turn, i)
                else:
                    hits += 1
                node = child
                if status[node] is not None:
                    steps = i + 1
                    break
            self._hits += hits
        up = cols.parent[node] if n and steps == n else None
        self._last = (reshapes, h0, seq, node, up, steps + 1)
        return node

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
        cols = self._cols
        status, depth = cols.status[node], cols.depth[node]
        if status is not None:
            return ProbeInfo(status, depth, None, None, cols, node)
        row = cols.rows[cols.hop[node]]
        if not row[2]:
            return ProbeInfo(PathStatus.STRANDED, depth, None, None, cols, node)
        blocked: int | None = None
        if collision is not None:
            if collision.__class__ is self._circuit_type:
                # Exact incremental verdict: first directed re-crossing.
                blocked = cols.fwd_blocked[node]
            else:
                blocked = cols.blocked_at(node, collision, False)
        return ProbeInfo(PathStatus.DELIVERED, depth, row[0], blocked, cols, node)

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
        cols = self._cols
        status, m = cols.status[node], cols.depth[node]
        if status is not None:
            return ProbeInfo(status, m, None, None, cols, node)
        if cols.rows[cols.hop[node]][2]:
            # The bounce turn arrives with the message already at a host.
            return ProbeInfo(
                PathStatus.HIT_HOST_TOO_SOON, m, None, None, cols, node
            )
        blocked: int | None = None
        if collision is not None:
            fwd_blocked = cols.fwd_blocked[node]
            if collision.__class__ is not self._circuit_type:
                blocked = cols.blocked_at(node, collision, True)
            elif fwd_blocked is not None:
                blocked = fwd_blocked
            elif cols.last_rev[node] is not None:
                # Exact incremental verdict. The forward channels are all
                # distinct past ``fwd_blocked``'s check, so the loopback's
                # first re-crossing is the earliest retrace of a wire the
                # forward pass crossed both ways — the retrace visits
                # reverses in backward order, so the *largest* such
                # forward index blocks first.
                blocked = 2 * m - 1 - cols.last_rev[node]
        return ProbeInfo(PathStatus.DELIVERED, 2 * m, h0, blocked, cols, node)
