"""The simplified mapping algorithm of Section 3.1, verbatim.

This is the proof vehicle, kept as a test oracle (no product path runs it): EXPLORE builds the full model tree ``M`` (a
subtree of the probe-string space) breadth-first to ``SearchDepth``; MERGE
runs the ``mergeLabels`` deduction to a fixed point ("two vertices with the
same label correspond to the same actual node", Lemma 2); PRUNE repeatedly
deletes degree-1 switches of the quotient ``M / L``. The output is ``M / L``
as a :class:`~repro.topology.model.Network`, which Theorem 1 says is
isomorphic to ``N - F`` (circuit model) or ``N`` (cut-through, ``F`` empty).

Because the tree is *not* collapsed during exploration, its size is
exponential in the search depth (the paper: "for our system the complexity
is 2^O(D+Q)") — use this implementation on small networks; the production
algorithm (:mod:`repro.core.mapper`) is the scalable one.

Two deliberate divergences from the pseudo-code as printed, both noted in
the paper's own text:

- the pseudo-code's ``until (anyDeductions? = true)`` is a typo for the
  fixed point (``until no deductions``);
- host-vertices are not enqueued on the frontier (probing past a host can
  only produce HIT-A-HOST-TOO-SOON failures).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.core.relative import MappingError, assemble
from repro.simulator.probes import ProbeService, ProbeStats
from repro.simulator.turns import Turns
from repro.topology.model import Network

__all__ = ["LabeledMapper", "LabeledResult", "TreeVertex"]

_KIND_SWITCH = "switch"
_KIND_HOST = "host"


class TreeVertex:
    """A vertex of the model tree ``M`` (Section 3.1.1 data structure)."""

    __slots__ = ("vid", "kind", "label", "probe_string", "neighbors")

    def __init__(self, vid: int, kind: str, label, probe_string: Turns) -> None:
        self.vid = vid
        self.kind = kind
        self.label = label
        self.probe_string = probe_string
        #: relative port index -> (neighbor vertex, neighbor's index).
        self.neighbors: dict[int, tuple["TreeVertex", int]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TV {self.vid} {self.kind} label={self.label!r}>"


@dataclass(slots=True)
class LabeledResult:
    """Output of the simplified algorithm."""

    network: Network
    stats: ProbeStats
    mapper_host: str
    search_depth: int
    tree_size: int
    n_labels_initial: int
    n_labels_final: int
    merge_rounds: int


class LabeledMapper:
    """EXPLORE / MERGE / PRUNE exactly as presented in Section 3.1."""

    def __init__(
        self,
        service: ProbeService,
        *,
        search_depth: int,
        host_first: bool = True,
        radix: int = 8,
        max_tree_size: int = 200_000,
    ) -> None:
        if search_depth < 1:
            raise ValueError("search_depth must be at least 1")
        self._svc = service
        self._depth = search_depth
        self._host_first = host_first
        self._radix = radix
        self._max_tree = max_tree_size
        self._ids = itertools.count()
        self._vertices: list[TreeVertex] = []
        #: label -> its vertices in creation/merge order (never a set:
        #: which label survives a merge must not depend on addresses)
        self._label_classes: dict[object, list[TreeVertex]] = {}
        self._fresh_labels = itertools.count()

    # ------------------------------------------------------------------
    def run(self) -> LabeledResult:
        root_host, root_switch = self._initialize()
        self._explore(root_switch)
        n_initial = len(self._label_classes)
        rounds = self._merge_to_fixed_point()
        network = self._quotient_and_prune()
        return LabeledResult(
            network=network,
            stats=self._svc.stats.snapshot(),
            mapper_host=self._svc.mapper_host,
            search_depth=self._depth,
            tree_size=len(self._vertices),
            n_labels_initial=n_initial,
            n_labels_final=len(
                {v.label for v in self._vertices}
            ),
            merge_rounds=rounds,
        )

    # ------------------------------------------------------------------
    # EXPLORE
    # ------------------------------------------------------------------
    def _initialize(self) -> tuple[TreeVertex, TreeVertex]:
        h0 = self._new_vertex(_KIND_HOST, self._svc.mapper_host, ())
        root = self._new_vertex(_KIND_SWITCH, next(self._fresh_labels), ())
        h0.neighbors[0] = (root, 0)
        root.neighbors[0] = (h0, 0)
        return h0, root

    def _explore(self, root_switch: TreeVertex) -> None:
        frontier: deque[TreeVertex] = deque([root_switch])
        while frontier:
            v = frontier.popleft()
            if len(v.probe_string) >= self._depth:
                continue
            for turn in self._turn_order():
                new_string = v.probe_string + (turn,)
                what_kind = self._response(new_string)
                if what_kind is None:
                    continue
                if len(self._vertices) >= self._max_tree:
                    raise MappingError(
                        f"model tree exceeded {self._max_tree} vertices; the "
                        "simplified algorithm is exponential — use "
                        "BerkeleyMapper for this topology/depth"
                    )
                if what_kind == _KIND_SWITCH:
                    child = self._new_vertex(
                        _KIND_SWITCH, next(self._fresh_labels), new_string
                    )
                    frontier.append(child)
                else:
                    child = self._new_vertex(_KIND_HOST, what_kind, new_string)
                v.neighbors[turn] = (child, 0)
                child.neighbors[0] = (v, turn)

    def _turn_order(self):
        return [t for t in range(-(self._radix - 1), self._radix) if t != 0]

    def _response(self, turns: Turns) -> str | None:
        if self._host_first:
            host = self._svc.probe_host(turns)
            if host is not None:
                return host
            return _KIND_SWITCH if self._svc.probe_switch(turns) else None
        if self._svc.probe_switch(turns):
            return _KIND_SWITCH
        return self._svc.probe_host(turns)

    # ------------------------------------------------------------------
    # MERGE
    # ------------------------------------------------------------------
    def _merge_to_fixed_point(self) -> int:
        rounds = 0
        while True:
            rounds += 1
            if not self._merge_round():
                return rounds

    def _merge_round(self) -> bool:
        """One pass of the MERGE pseudo-code; True iff any deduction fired."""
        any_deductions = False
        for label, members in list(self._label_classes.items()):
            group = [v for v in members if v.label == label]
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    v1, v2 = group[a], group[b]
                    if v1.label != v2.label:
                        continue  # stale after an earlier merge this round
                    for i in sorted(set(v1.neighbors) & set(v2.neighbors)):
                        u1, _ = v1.neighbors[i]
                        u2, _ = v2.neighbors[i]
                        if u1.label != u2.label:
                            self._merge_labels(v1, v2, i)
                            any_deductions = True
        return any_deductions

    def _merge_labels(self, v1: TreeVertex, v2: TreeVertex, i: int) -> None:
        """The Section 3.1.2 ``mergeLabels``: relabel and re-index.

        ``v1`` and ``v2`` are labeled the same and, through relative port
        ``i``, connect to ``u1`` on port ``j`` and ``u2`` on port ``k``.
        Every vertex labeled like ``u2`` takes ``u1``'s label and has its
        neighbor indexing shifted by ``j - k``.
        """
        u1, j = v1.neighbors[i]
        u2, k = v2.neighbors[i]
        if u1.kind != u2.kind:
            raise MappingError(
                f"labels of a {u1.kind} and a {u2.kind} forced together"
            )
        if u1.kind == _KIND_HOST and u1.label != u2.label:
            raise MappingError(
                f"distinct hosts {u1.label!r} and {u2.label!r} forced together"
            )
        delta = j - k
        old_label, new_label = u2.label, u1.label
        movers = list(self._label_classes.get(old_label, ()))
        for w in movers:
            if delta:
                self._shift_indices(w, delta)
            w.label = new_label
        self._label_classes.setdefault(new_label, []).extend(movers)
        self._label_classes.pop(old_label, None)

    @staticmethod
    def _shift_indices(w: TreeVertex, delta: int) -> None:
        shifted: dict[int, tuple[TreeVertex, int]] = {}
        for idx, (nbr, nbr_idx) in w.neighbors.items():
            shifted[idx + delta] = (nbr, nbr_idx)
            # Fix the back-reference index stored at the neighbor.
            nbr.neighbors[nbr_idx] = (w, idx + delta)
        w.neighbors = shifted

    # ------------------------------------------------------------------
    # PRUNE + quotient
    # ------------------------------------------------------------------
    def _quotient_and_prune(self) -> Network:
        """Build ``M / L``, then repeatedly delete its degree-1 switches."""
        kind_of: dict[object, str] = {}
        ports: dict[object, dict[int, tuple[object, int]]] = {}
        for v in self._vertices:
            kind_of[v.label] = v.kind
            mine = ports.setdefault(v.label, {})
            for idx, (nbr, nbr_idx) in v.neighbors.items():
                end = (nbr.label, nbr_idx)
                if mine.setdefault(idx, end) != end:
                    raise MappingError(
                        f"label {v.label!r} index {idx} leads to both "
                        f"{mine[idx]} and {end}"
                    )

        # PRUNE: degree-1 switches of the quotient, to a fixed point.
        while dead := [
            label
            for label, ends in ports.items()
            if kind_of[label] == _KIND_SWITCH and len(ends) <= 1
        ]:
            for label in dead:
                for far, far_idx in ports.pop(label).values():
                    ports.get(far, {}).pop(far_idx, None)

        # Hosts keep their names; switches are numbered in label order.
        names: dict[object, str] = {}
        numbers = itertools.count()
        for label in sorted(ports, key=str):
            if kind_of[label] == _KIND_HOST:
                names[label] = str(label)
            else:
                names[label] = f"switch-{next(numbers)}"
        nodes: dict[str, dict | None] = {}
        for label, name in names.items():
            if kind_of[label] == _KIND_HOST:
                nodes[name] = None
                continue
            nodes[name] = {
                idx: (names[far], far_idx)
                for idx, (far, far_idx) in sorted(ports[label].items())
            }
        return assemble(nodes, self._radix)[0]

    # ------------------------------------------------------------------
    def _new_vertex(self, kind: str, label, probe_string: Turns) -> TreeVertex:
        v = TreeVertex(next(self._ids), kind, label, probe_string)
        self._vertices.append(v)
        self._label_classes.setdefault(label, []).append(v)
        return v
