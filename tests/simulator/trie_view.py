"""A read-only view of an evaluator's probe trie, for white-box tests.

The trie keeps its nodes as int ids in parallel columns
(``repro.simulator.path_eval._Columns``). :func:`trie_nodes` walks it from
the roots through the children dict and yields one :class:`TrieNode` per
node, with the attributes a test reads: ``parent``, ``children``, ``hop``,
``depth`` and ``dep``. A view lives as long as a test holds it, and the
same node yields the same view meanwhile, so ``id(view)`` names a node
across walks for as long as its id stands. :func:`walk_result` reads a
cached walk back as the :class:`PathResult` the pure walk returns, for
tests that compare the two whole.

:class:`MemoFreeProbeService` is the cached service with the evaluator's
memory of its last walk wiped before every walk: every probe walks from
its root, as the evaluator did before it remembered, so its counters are
the ones a remembered walk must reproduce.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Iterator

from repro.simulator.path_eval import (
    _NO_WALK,
    PathResult,
    PathStatus,
    ProbeInfo,
    Traversal,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import Turns

_VIEWS: "weakref.WeakValueDictionary[tuple[int, int], TrieNode]" = (
    weakref.WeakValueDictionary()
)


def _children_of(cols) -> dict[int, dict[int, int]]:
    """Node -> {turn: child}, read from the per-turn children dicts."""
    index: dict[int, dict[int, int]] = defaultdict(dict)
    for turn, kids in cols.children.items():
        for parent, child in kids.items():
            index[parent][turn] = child
    return index


class Hop:
    """A hop row's two shared traversals."""

    __slots__ = ("fwd", "rev")

    def __init__(self, fwd: Traversal, rev: Traversal) -> None:
        self.fwd = fwd
        self.rev = rev


class TrieNode:
    """One trie node, read from its columns on every access."""

    __slots__ = ("_cols", "_id", "__weakref__")

    def __new__(cls, cols, node: int) -> "TrieNode":
        key = (id(cols), node)
        view = _VIEWS.get(key)
        if view is None:
            view = super().__new__(cls)
            view._cols = cols  # keeps id(cols) from being reused
            view._id = node
            _VIEWS[key] = view
        return view

    @property
    def parent(self) -> "TrieNode | None":
        up = self._cols.parent[self._id]
        return TrieNode(self._cols, up) if up else None

    @property
    def children(self) -> "dict[int, TrieNode] | None":
        kids = _children_of(self._cols).get(self._id)
        if not kids:
            return None
        return {turn: TrieNode(self._cols, child) for turn, child in kids.items()}

    @property
    def hop(self) -> Hop | None:
        """The wire half this node's step crossed (None for an absorbing node)."""
        cols = self._cols
        if cols.status[self._id] is not None:
            return None
        return Hop(*cols.crossing(cols.hop[self._id]))

    @property
    def depth(self) -> int:
        return self._cols.depth[self._id]

    @property
    def dep(self) -> tuple:
        return self._cols.dep(self._id)


def trie_nodes(owner) -> Iterator[TrieNode]:
    """Every node reachable from the roots of a service's or evaluator's trie."""
    ev = getattr(owner, "_evaluator", owner)
    cols = ev._trie.cols
    index = _children_of(cols)
    stack = list(ev._roots.values())
    while stack:
        node = stack.pop()
        yield TrieNode(cols, node)
        stack.extend(index.get(node, {}).values())


def walk_result(ev, h0: str, turns: Turns) -> PathResult:
    """The walk of ``turns`` from ``h0`` through evaluator ``ev``'s trie,
    as :func:`~repro.simulator.path_eval.evaluate_route` reports it."""
    info = ev.probe_info(h0, turns)
    traversals = info.traversals
    failed_at = None
    if info.status not in (
        PathStatus.DELIVERED,
        PathStatus.STRANDED,
        PathStatus.NOT_ATTACHED,
    ):
        # An absorbing walk crossed the attach wire and one wire per turn
        # before the turn it failed on.
        failed_at = info.hops - 1
    return PathResult(
        status=info.status,
        nodes=[h0, *(tr.dst.node for tr in traversals)],
        traversals=list(traversals),
        delivered_to=info.delivered_to,
        failed_at_turn=failed_at,
    )


class MemoFreeProbeService(QuiescentProbeService):
    """Every walk from the root: the last walk is forgotten first."""

    def _probe_info(self, turns: Turns) -> ProbeInfo:
        self._evaluator._last = _NO_WALK
        return super()._probe_info(turns)

    def _loopback_info(self, turns: Turns) -> ProbeInfo:
        self._evaluator._last = _NO_WALK
        return super()._loopback_info(turns)
