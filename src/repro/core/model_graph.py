"""The model graph and its one deduction rule (Section 3.3, modification 2).

After the paper's second modification, labels are replaced by *merging
vertex objects*, driven by a ``mergelist`` of vertices whose neighborhoods
changed — "merging two switches may produce new ones to merge".

The model graph here holds only live :class:`MergedVertex` objects. Each
keeps a ``nbrs`` mapping from *relative port index* (relative to the entry
port of the vertex's creation probe path) to the set of ``(neighbor,
neighbor_index)`` wire-ends seen there. A merge rewrites every wire-end
that named the absorbed vertex and a deletion drops them, so ``nbrs``
only ever names live vertices, and the absorbed object is freed at its
merge. What outlives a vertex is its id: the frontier and the mergelist
hold ids, and a union-find over ids (``_parent``) leads each, and each
switch a seed named, to the live vertex it was merged into.

The single deduction rule is the paper's: an actual switch port has exactly
one cable, so two wire-ends recorded at the same index must lead to
replicates — merge them, shifting the absorbed vertex's indices so the
shared wire-end aligns (the ``mergeLabels`` re-indexing of Section 3.1.2).

Hosts carry unique names; two host-vertices with one name merge on sight
(every host has a single network connection, so their parent switches are
then forced together — the anchor step of Lemma 3).

Most merges absorb a *degree-1 twin*: a switch-vertex whose one wire-end
is the very one being deduced (about nine in ten on a fat tree). Such a
merge happens in place. Say index ``i`` of ``v`` holds ``(keep, ki)`` and
``(absorb, ai)``, and ``absorb`` holds nothing but ``(v, i)`` at ``ai``.
Every wire-end stays paired with its back-reference, so ``keep`` already
holds ``(v, i)`` at ``ki``: rewriting absorb's one end onto ``keep``
re-adds two ends that are there. All the general merge changes is to drop
``(absorb, ai)`` from ``v``'s index ``i``. (``v`` is not ``absorb``, whose
one index holds one end; and ``(v, i)`` is not ``(keep, ki)``, since no
index ever holds a wire to itself.)
The in-place merge does just that, queues the same vertices in the same
order, and writes the union-find, counters and profiler row as the
general one does. Since only ``v``'s index ``i`` changed, and every
earlier index of ``v`` held one end, the scan of ``v`` resumes at ``i``
instead of restarting; after a general merge it restarts. So merge order,
representatives, port frames and the map are those of the plain rule
(``tests/core/reference_drain.py`` holds the plain rule as the oracle).

:class:`ModelGraph` is that graph and nothing else: create, link, merge,
deduce, PRUNE, and the hand-off to :func:`repro.core.relative.assemble`.
Whoever feeds it decides what the wire-ends mean.
:class:`~repro.core.mapper.BerkeleyMapper` *is* one and feeds it probe
responses (so do its coupon and information-gain variants);
:func:`repro.extensions.parallel_maps.merge_partial_maps` feeds it whole
partial maps, one vertex per view node. The methods keep the underscore
names the mapper family has always driven the graph by.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.relative import End, MappingError, assemble
from repro.simulator.turns import Turns
from repro.topology.model import Network

if TYPE_CHECKING:
    from repro.core.instrumentation import PhaseProfiler

__all__ = ["KIND_HOST", "KIND_SWITCH", "MergedVertex", "ModelGraph"]


KIND_SWITCH = "switch"
KIND_HOST = "host"


class MergedVertex:
    """A vertex of the model graph (after modification 2 of Section 3.3)."""

    __slots__ = (
        "vid",
        "kind",
        "host_name",
        "probe_string",
        "nbrs",
        "explored",
        "multi",
    )

    def __init__(
        self,
        vid: int,
        kind: str,
        probe_string: Turns,
        host_name: str | None = None,
    ) -> None:
        self.vid = vid
        self.kind = kind
        self.host_name = host_name
        self.probe_string = probe_string
        self.nbrs: dict[int, set[tuple["MergedVertex", int]]] = {}
        self.explored = False
        # Number of indices in ``nbrs`` currently holding more than one
        # wire-end. Maintained at every set mutation so the deduction drain
        # can skip vertices with nothing to deduce in O(1) instead of
        # rescanning the whole adjacency (mergelist entries are mostly
        # sterile: a vertex is re-queued on every touch).
        self.multi = 0

    @property
    def depth(self) -> int:
        return len(self.probe_string)

    def degree(self) -> int:
        """Incident wire-ends (a loopback cable contributes two)."""
        return sum(len(s) for s in self.nbrs.values())


class ModelGraph:
    """Merging vertices, the mergelist, PRUNE and the output stage.

    ``radix`` is the switch radix of the network :meth:`_build_network`
    emits; ``profiler`` is an optional
    :class:`~repro.core.instrumentation.PhaseProfiler` that receives the
    ``merge`` phase row.
    """

    def __init__(
        self, *, radix: int, profiler: "PhaseProfiler | None" = None
    ) -> None:
        self._radix = radix
        self._prof = profiler
        # Union-find over vertex ids: a vertex's id is its index here, and
        # it holds the id of the vertex it was merged into (its own while
        # it has not been).
        self._parent: list[int] = []
        # The vertices neither merged away nor pruned, by vid; nothing else
        # holds a vertex object. dict preserves insertion order, so
        # iteration is creation order.
        self._live: dict[int, MergedVertex] = {}
        self._hosts: dict[str, MergedVertex] = {}
        self._mergelist: deque[int] = deque()
        self._merges = 0
        # A switch's name in the map a seed adopted it from, by vertex.
        self._names: dict[MergedVertex, str] = {}

    # ------------------------------------------------------------------
    # vertices and wire-ends
    # ------------------------------------------------------------------
    def _new_vertex(
        self, kind: str, probe_string: Turns, host_name: str | None = None
    ) -> MergedVertex:
        vid = len(self._parent)
        self._parent.append(vid)
        v = self._live[vid] = MergedVertex(vid, kind, probe_string, host_name)
        return v

    def _find(self, vid: int) -> MergedVertex | None:
        """The live vertex ``vid`` was merged into, or None once pruned."""
        parent = self._parent
        root = vid
        while parent[root] != root:
            root = parent[root]
        while parent[vid] != root:  # path compression
            parent[vid], vid = root, parent[vid]
        return self._live.get(root)

    def _link(self, u: MergedVertex, ui: int, w: MergedVertex, wi: int) -> None:
        self._add_end(u, ui, w, wi)
        self._add_end(w, wi, u, ui)

    def _add_end(
        self, u: MergedVertex, ui: int, w: MergedVertex, wi: int
    ) -> None:
        """Record wire-end ``(w, wi)`` at index ``ui`` of ``u``, keeping the
        multi-end counter exact (the add may be a set-semantics no-op)."""
        ends = u.nbrs.get(ui)
        if ends is None:
            u.nbrs[ui] = {(w, wi)}
            return
        before = len(ends)
        ends.add((w, wi))
        if len(ends) > 1:
            if before == 1:
                u.multi += 1
            self._mergelist.append(u.vid)

    def _drop_end(
        self, w: MergedVertex, wi: int, end: tuple[MergedVertex, int]
    ) -> None:
        """Remove a wire-end back-reference, keeping ``multi`` exact."""
        back = w.nbrs.get(wi)
        if back is None:
            return
        before = len(back)
        back.discard(end)
        if before == 2 and len(back) == 1:
            w.multi -= 1
        if not back:
            del w.nbrs[wi]

    def _register_host(self, child: MergedVertex) -> None:
        assert child.host_name is not None
        existing = self._hosts.get(child.host_name)
        if existing is None:
            self._hosts[child.host_name] = child
            return
        # "When a new host-vertex is created, it is put on mergelist":
        # identical names force a merge (hosts are uniquely identified).
        self._merge(existing, child, 0)

    # ------------------------------------------------------------------
    # merging (the deduction engine)
    # ------------------------------------------------------------------
    def _merge(self, keep: MergedVertex, absorb: MergedVertex, shift: int) -> None:
        """Merge live ``absorb`` into live ``keep``, a distinct vertex;
        absorb's index i becomes i+shift."""
        if keep.kind != absorb.kind:
            raise MappingError(
                f"cannot merge a {keep.kind} with a {absorb.kind}; "
                "responses are inconsistent with the system model"
            )
        if keep.kind == KIND_HOST:
            if keep.host_name != absorb.host_name:
                raise MappingError(
                    f"hosts {keep.host_name} and {absorb.host_name} forced together"
                )
            if shift != 0:
                raise MappingError(
                    f"host {keep.host_name} merged under a nonzero port shift"
                )
        # Keep an explored representative when possible so frontier entries
        # pointing at the absorbed twin are skipped rather than re-probed.
        if absorb.explored and not keep.explored:
            keep, absorb, shift = absorb, keep, -shift

        prof = self._prof
        t0 = prof.clock() if prof is not None else 0.0
        # Rewrite every wire-end that names absorb to name keep. Nothing
        # here writes to absorb's own adjacency, which goes with it.
        for i, ends in absorb.nbrs.items():
            new_i = i + shift
            # Deterministic order: set iteration follows id()-based hashes,
            # which vary run to run; merge order must not. (The common
            # single end has only one order.)
            ordered = (
                sorted(ends, key=lambda e: (e[0].vid, e[1])) if len(ends) > 1 else ends
            )
            for (w, wi) in ordered:
                if w is absorb:
                    # Loopback wire inside the absorbed vertex; its far end
                    # moves too, when the loop reaches that index.
                    w = keep
                    wi = wi + shift
                else:
                    # Remove the back-reference to absorb.
                    self._drop_end(w, wi, (absorb, i))
                if w is keep and wi == new_i:
                    # A wire from absorb to keep at what is now the same
                    # wire-end on both sides cannot exist physically.
                    raise MappingError(
                        "merge would create a wire from a port to itself"
                    )
                self._add_end(keep, new_i, w, wi)
                self._add_end(w, wi, keep, new_i)

        self._parent[absorb.vid] = keep.vid
        del self._live[absorb.vid]
        keep.explored = keep.explored or absorb.explored
        if keep.kind == KIND_HOST:
            self._hosts[keep.host_name] = keep  # type: ignore[index]
        self._merges += 1
        self._mergelist.append(keep.vid)
        if prof is not None:
            prof.add("merge", prof.clock() - t0)

    def _drain_mergelist(self) -> None:
        """Apply the deduction rule until stable (Section 3.3 item 2).

        Vertices are queued on every adjacency touch, so most entries are
        sterile; the ``multi`` counter makes popping those O(1) instead of
        an O(radix) rescan. Productive entries scan in the same index order
        as always — merge order is observable (it picks representatives and
        port frames) and must not change.
        """
        parent, live = self._parent, self._live
        while self._mergelist:
            vid = self._mergelist.popleft()
            v = live.get(vid) if parent[vid] == vid else self._find(vid)
            if v is not None and v.multi:
                self._deduce_at(v)

    def _deduce_at(self, v: MergedVertex | None) -> None:
        """Collapse every index of ``v`` holding more than one wire-end,
        the first such index first, until none is left.

        Of the two lowest ends at an index, the one on the lower vertex id
        is kept (an explored one wins). When both are switches and the
        absorbed one's only wire-end is this one, the merge happens in
        place (see the module docstring) and the scan stays at the index;
        after any other merge it restarts from the first index.
        """
        while v is not None and v.multi:
            for i, ends in v.nbrs.items():
                while len(ends) > 1:
                    (w1, wi1), (w2, wi2) = ends if len(ends) == 2 else sorted(
                        ends, key=lambda e: (e[0].vid, e[1]))[:2]
                    if w2.vid < w1.vid:
                        w1, wi1, w2, wi2 = w2, wi2, w1, wi1
                    if w1 is w2:
                        raise MappingError(
                            f"port index {i} of {v!r} is wired to two different "
                            f"ports of the same node; violates the system model"
                        )
                    # Two wire-ends on one actual port: replicates. Align the
                    # indices of the shared wire-end (Section 3.1.2 re-indexing).
                    keep, ki, absorb, ai = (w2, wi2, w1, wi1) if (
                        w2.explored and not w1.explored) else (w1, wi1, w2, wi2)
                    if not (keep.kind == KIND_SWITCH == absorb.kind
                            and len(absorb.nbrs) == 1 and not absorb.multi):
                        break
                    # (v, i) is absorb's one wire-end, and keep holds it at
                    # ki: the merge drops absorb's end here and writes
                    # nothing else. ``_merge`` would do the same, through one
                    # drop and two set-no-op adds, queueing in this order.
                    prof = self._prof
                    t0 = prof.clock() if prof is not None else 0.0
                    ends.discard((absorb, ai))
                    if len(ends) == 1:
                        v.multi -= 1
                    if len(keep.nbrs[ki]) > 1:
                        self._mergelist.append(keep.vid)
                    if len(ends) > 1:
                        self._mergelist.append(v.vid)
                    self._parent[absorb.vid] = keep.vid
                    del self._live[absorb.vid]
                    keep.explored |= absorb.explored
                    self._merges += 1
                    self._mergelist.append(keep.vid)
                    if prof is not None:
                        prof.add("merge", prof.clock() - t0)
                if len(ends) > 1:
                    self._merge(w1, w2, wi1 - wi2)
                    break  # rescan from the first index
                if not v.multi:
                    return
            v = self._find(v.vid)

    # ------------------------------------------------------------------
    # pruning and output
    # ------------------------------------------------------------------
    def _live_vertices(self) -> list[MergedVertex]:
        # Maintained incrementally (creation / merge / delete); insertion
        # order is creation order.
        return list(self._live.values())

    def _prune(self) -> None:
        """Delete degree-<=1 switches and everything that cascades (PRUNE).

        Removes F-region probe trees and unexplored frontier stubs; core
        switches always have degree >= 2 (a degree-1 switch cannot lie on
        any non-edge-repeating path between hosts). One seed scan finds the
        initial prunable set; each deletion enqueues neighbors whose degree
        drops, so the whole stage is O(V + E) instead of a fixpoint of full
        rescans. The surviving set is the same either way: pruning is
        confluent (deletions only ever lower other degrees).
        """
        pending = deque(
            v
            for v in self._live.values()
            if v.kind == KIND_SWITCH and v.degree() <= 1
        )
        while pending:
            v = pending.popleft()
            if v.vid in self._live and v.degree() <= 1:
                self._delete(v, cascade=pending)

    def _delete(
        self, v: MergedVertex, cascade: deque[MergedVertex] | None = None
    ) -> None:
        for i, ends in v.nbrs.items():
            for (w, wi) in ends:
                if w is v:
                    continue
                self._drop_end(w, wi, (v, i))
                if cascade is not None and w.kind == KIND_SWITCH and w.degree() <= 1:
                    cascade.append(w)
        del self._live[v.vid]

    def _build_network(
        self,
        live: Iterable[MergedVertex] | None = None,
        radix: int | None = None,
        host_meta: Mapping[str, Mapping] | None = None,
    ) -> tuple[Network, dict[str, Turns], dict[str, int]]:
        """Convert the merged model graph into a :class:`Network`.

        Switch port numbers are the relative indices shifted so the minimum
        used index is 0 — the canonical representative of the
        per-switch-offset equivalence class the mapper can determine. Also
        records each node's discovery witness (its vertex's probe string)
        and each switch's witness entry port (model index 0 after the
        shift), which is what a future run needs to seed itself from this
        map without re-deriving the coordinate system.

        A switch a seed adopted keeps its name in the prior map, through
        any merge; every other switch takes the lowest ``switch-N`` that no
        kept switch or host holds, in vertex order. A cold map so numbers
        its switches in discovery order, and a seeded one renames nothing
        it kept: a route that did not change reads the same.

        ``live`` restricts the output to those live vertices (a set closed
        under adjacency — one island of merged views), ``radix`` overrides
        the graph's own for it, and ``host_meta`` goes to
        :func:`~repro.core.relative.assemble`.
        """
        if live is None:
            live = self._live_vertices()
        live = sorted(live, key=lambda v: v.vid)
        kept = {rep.vid: name for v, name in self._names.items() if (rep := self._find(v.vid))}
        taken = {kept.get(v.vid) if v.kind == KIND_SWITCH else v.host_name for v in live}
        fresh = (name for n in itertools.count() if (name := f"switch-{n}") not in taken)
        names: dict[int, str] = {}
        witnesses: dict[str, Turns] = {}
        for v in live:
            if any(len(ends) > 1 for ends in v.nbrs.values()):
                raise MappingError(
                    f"unresolved multi-wire port survived on {v!r}; "
                    "increase the search depth"
                )
            if v.kind == KIND_HOST:
                if v.host_name in witnesses:
                    raise MappingError(
                        f"two model vertices for host {v.host_name} survived"
                    )
                name = v.host_name
            else:
                name = names[v.vid] = kept.get(v.vid) or next(fresh)
            witnesses[name] = v.probe_string  # type: ignore[index]

        nodes: dict[str, dict[int, End] | None] = {}
        for v in live:
            if v.kind == KIND_HOST:
                nodes[v.host_name] = None  # type: ignore[index]
                continue
            ports = nodes[names[v.vid]] = {}
            for i, ends in v.nbrs.items():
                for (w, wi) in ends:
                    if w.kind == KIND_HOST:
                        ports[i] = (w.host_name, 0)  # type: ignore[assignment]
                    else:
                        ports[i] = (names[w.vid], wi)
        net, entry_ports = assemble(
            nodes, self._radix if radix is None else radix, host_meta
        )
        return net, witnesses, entry_ports
