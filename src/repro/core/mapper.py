"""The Berkeley mapping algorithm — the production form of Section 3.3.

The simplified algorithm of Section 3.1 (see :mod:`repro.core.labeled`)
explores fully, then labels, then prunes. The paper then applies three
modifications that "converge to the actual one":

1. labeling is interleaved with exploration (a deduction made early is never
   invalidated by later probes);
2. labels are replaced by *merging vertex objects*, driven by a ``mergelist``
   of vertices whose neighborhoods changed — "merging two switches may
   produce new ones to merge";
3. probe-order heuristics cut the message count
   (:mod:`repro.core.planner`).

The model graph — merging vertices, the deduction rule, PRUNE and the
output stage — is :class:`repro.core.model_graph.ModelGraph`.
:class:`BerkeleyMapper` is one, and this module is what drives it:
initialise, explore, probe, seed, and record growth and phase times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.mapper_protocol import MapperCapabilities, register_mapper
from repro.core.model_graph import KIND_HOST, KIND_SWITCH, MergedVertex, ModelGraph
from repro.core.planner import ProbePlanner
from repro.core.relative import MappingError
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.simulator.probes import ProbeService, ProbeStats
from repro.simulator.turns import Turns
from repro.topology.analysis import core_network
from repro.topology.delta import Endpoint
from repro.topology.model import Network

if TYPE_CHECKING:
    from repro.core.instrumentation import PhaseProfile, PhaseProfiler

__all__ = [
    "BerkeleyMapper",
    "GrowthSample",
    "MapResult",
    "MapSeed",
    "MappingError",
]


@dataclass(frozen=True, slots=True)
class GrowthSample:
    """One Figure 8 sample: model size after a switch exploration."""

    exploration: int
    n_nodes: int
    n_edges: int
    n_frontier: int


@dataclass(slots=True)
class MapResult:
    """Everything a mapping run produces."""

    network: Network
    stats: ProbeStats
    mapper_host: str
    search_depth: int
    explorations: int
    merges: int
    peak_model_nodes: int
    growth: list[GrowthSample] = field(default_factory=list)
    switch_names: dict[int, str] = field(default_factory=dict)
    profile: "PhaseProfile | None" = None
    #: Discovery witness per map node: the probe string whose walk from the
    #: mapper host identifies that node (empty for the mapper host and its
    #: attach switch). What a later run needs to seed itself from this map.
    witnesses: dict[str, Turns] = field(default_factory=dict)
    #: Witness entry port per map switch (the port the witness's last hop
    #: arrived on). Lets a seeded re-run recover each switch's relative
    #: coordinate system without re-walking the prior map.
    entry_ports: dict[str, int] = field(default_factory=dict)
    #: Whether this run kept model subtrees from a prior-map seed.
    seeded: bool = False
    #: Nodes adopted intact from the seed (0 for a from-scratch run).
    kept_nodes: int = 0
    #: Why a supplied seed was abandoned for a from-scratch run, if it was.
    seed_fallback: str | None = None

    @property
    def elapsed_ms(self) -> float:
        return self.stats.elapsed_ms

    @classmethod
    def from_native(
        cls,
        native,
        search_depth: int,
        explorations: int,
        merges: int,
        peak_model_nodes: int,
    ) -> "MapResult":
        """The protocol shape of a breadth-first mapper's native result.

        A mapper that explores every switch it reaches maps ``N`` — its
        ``run()`` keeps that — while :meth:`Mapper.map` promises the
        theorem's ``N - F`` for every algorithm, as Berkeley's PRUNE stage
        delivers it. This is the one place a breadth-first map is pruned.
        """
        return cls(
            network=core_network(native.network),
            stats=native.stats,
            mapper_host=native.mapper_host,
            search_depth=search_depth,
            explorations=explorations,
            merges=merges,
            peak_model_nodes=peak_model_nodes,
        )


@dataclass(frozen=True, slots=True)
class MapSeed:
    """A prior map plus the wire-end delta separating it from the present.

    ``network`` and ``witnesses`` come from the prior run's
    :class:`MapResult`; ``affected`` is the merged *removals-only* delta of
    every mutation since that map was captured (additions make a seed
    unsound — a kept subtree cannot prove a wire it never probed does not
    exist — so delta-planning callers must fall back before building one).
    A node whose witness route never touches ``affected`` provably still
    answers every probe the prior run based its deductions on, so its model
    vertex is adopted intact; everything else is re-probed.
    """

    network: Network
    witnesses: Mapping[str, Turns]
    affected: frozenset[Endpoint]
    #: Per-switch witness entry ports (``MapResult.entry_ports``). When the
    #: seed comes straight from a prior run these are already known, and
    #: providing them skips the defensive witness re-walk over the prior
    #: map. Leave ``None`` for hand-built seeds to keep that validation.
    entries: Mapping[str, int] | None = None

    @classmethod
    def from_result(
        cls, prior: MapResult, affected: frozenset[Endpoint]
    ) -> "MapSeed":
        """The seed a prior run's result makes, given the delta since it."""
        return cls(
            network=prior.network,
            witnesses=prior.witnesses,
            affected=affected,
            entries=prior.entry_ports,
        )


@register_mapper(
    "berkeley",
    summary="the paper's merging-vertex algorithm (Section 3.3)",
)
class BerkeleyMapper(ModelGraph):
    """Drive the production algorithm against a probe service.

    The mapper *is* its model graph (:class:`ModelGraph`): exploration
    creates and links vertices and drains the mergelist once per explored
    switch, so the explore/deduce loop calls the engine with no hop in
    between, and the variants (coupon, information-gain) feed the same
    graph through the same methods.

    Parameters
    ----------
    service:
        The in-band interface to the network.
    search_depth:
        Maximum probe-string length (the paper's ``SearchDepth``; the
        proven-sufficient value is ``Q + D + 1``, see
        :func:`repro.topology.analysis.recommended_search_depth`).
    planner:
        Probe-order strategy; defaults to the heuristic planner.
    host_first:
        Whether the host-probe of each probe pair is sent before the
        switch-probe (the second test is skipped when the first one
        identifies the node).
    record_growth:
        Keep the per-exploration model-size trace (Figure 8).
    profiler:
        Optional :class:`~repro.core.instrumentation.PhaseProfiler`; when
        given, per-phase wall-clock is accumulated and snapshotted into
        ``MapResult.profile``. Purely observational.
    """

    capabilities = MapperCapabilities(seed_with=True, profiler=True)

    def __init__(
        self,
        service: ProbeService,
        *,
        search_depth: int,
        planner: ProbePlanner | None = None,
        host_first: bool = True,
        record_growth: bool = False,
        radix: int = 8,
        max_explorations: int | None = None,
        profiler: "PhaseProfiler | None" = None,
    ) -> None:
        """``max_explorations`` bounds the number of switch explorations.

        With plentiful host anchors merging keeps the model graph small
        (Figure 8), but in anchor-poor settings (Figure 9 with few daemons)
        the unmerged walk tree is exponential in the search depth — the
        paper's own complexity bound is 2^O(D+Q). A production mapper runs
        under a resource bound; when the bound trips, exploration stops and
        the mapper prunes and returns the best map it has (sound, possibly
        incomplete).
        """
        if search_depth < 1:
            raise ValueError("search_depth must be at least 1")
        super().__init__(radix=radix, profiler=profiler)
        self._svc = service
        self._depth = search_depth
        self._planner = planner or ProbePlanner(radix=radix)
        self._host_first = host_first
        self._record_growth = record_growth
        self._max_explorations = max_explorations
        self._seed: MapSeed | None = None
        self._seeded = False
        self._kept_nodes = 0
        self._seed_fallback: str | None = None

        self._frontier: deque[MergedVertex] = deque()
        self._explorations = 0
        self._growth: list[GrowthSample] = []
        self._peak_nodes = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> MapResult:
        """Map the network and return the result."""
        prof = self._prof
        self._initialize()
        self._seed_phase()
        self._main_loop()
        t0 = prof.clock() if prof is not None else 0.0
        self._prune()
        if prof is not None:
            prof.add("prune", prof.clock() - t0)
        self._snapshot(final=True)
        t0 = prof.clock() if prof is not None else 0.0
        network, names, witnesses, entry_ports = self._build_network()
        if prof is not None:
            prof.add("build", prof.clock() - t0)
        return MapResult(
            network=network,
            stats=self._svc.stats.snapshot(),
            mapper_host=self._svc.mapper_host,
            search_depth=self._depth,
            explorations=self._explorations,
            merges=self._merges,
            peak_model_nodes=self._peak_nodes,
            growth=self._growth,
            switch_names=names,
            profile=prof.snapshot() if prof is not None else None,
            witnesses=witnesses,
            entry_ports=entry_ports,
            seeded=self._seeded,
            kept_nodes=self._kept_nodes,
            seed_fallback=self._seed_fallback,
        )

    def map(self) -> MapResult:
        """Map the network — the :class:`Mapper` protocol entry point.

        Delegates to :meth:`run`; the two are the same operation. ``run``
        predates the protocol and stays for callers that know the
        concrete class, ``map`` is what registry-driven drivers call.
        """
        return self.run()

    def seed_with(self, seed: MapSeed) -> None:
        """Install a prior-map seed (must be called before :meth:`run`).

        Exists so drivers that build mappers through an injected factory
        (the remapper daemon, the chaos runner) can add seeding without
        widening the factory signature.
        """
        self._seed = seed

    def _seed_phase(self) -> None:
        """Hook for variants that pre-seed the model graph (Section 6
        randomized/coupon-collecting extensions). The base mapper does
        nothing here."""

    def _main_loop(self) -> None:
        prof = self._prof
        while self._frontier:
            if (
                self._max_explorations is not None
                and self._explorations >= self._max_explorations
            ):
                break
            v = self._find(self._pop_frontier())
            if v.dead or v.explored or v.kind != KIND_SWITCH:
                continue
            if v.depth >= self._depth:
                continue
            if prof is None:
                self._explore(v)
                v.explored = True
                self._explorations += 1
                self._drain_mergelist()
            else:
                t0 = prof.clock()
                self._explore(v)
                prof.add("explore", prof.clock() - t0)
                v.explored = True
                self._explorations += 1
                t0 = prof.clock()
                self._drain_mergelist()
                prof.add("deduce", prof.clock() - t0)
            self._snapshot()

    def _pop_frontier(self) -> "MergedVertex":
        """Select the next frontier vertex to explore.

        The base algorithm is strict BFS (the deque is FIFO), matching
        the paper; the information-gain variant overrides this to
        re-rank by expected model discrimination. Any order is sound —
        deductions made early are never invalidated (modification 1).
        """
        return self._frontier.popleft()

    # ------------------------------------------------------------------
    # initialization & exploration
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        if self._seed is not None:
            try:
                reason = self._try_seed(self._seed)
            except MappingError as exc:
                # A contradiction while adopting the seed indicts the seed,
                # not the network: start over from scratch.
                reason = f"seed adoption hit a contradiction: {exc}"
            if reason is None:
                self._seeded = True
                return
            self._seed_fallback = reason
            self._reset_model()
        # "The model graph M is initialized with two vertices: the root
        # host-vertex h0 ... and its adjacent switch-vertex." The system
        # model guarantees the mapper host hangs off a switch.
        h0 = self._new_vertex(KIND_HOST, (), host_name=self._svc.mapper_host)
        root = self._new_vertex(KIND_SWITCH, ())
        self._hosts[h0.host_name] = h0  # type: ignore[index]
        self._link(h0, 0, root, 0)
        self._frontier.append(root)

    def _reset_model(self) -> None:
        """Drop the model graph for a from-scratch restart after a seed
        failure. Probe stats and the exploration/merge counters survive —
        probes already sent were really sent."""
        self._vertices.clear()
        self._live.clear()
        self._hosts.clear()
        self._frontier.clear()
        self._mergelist.clear()
        self._kept_nodes = 0

    # ------------------------------------------------------------------
    # seeding (delta-aware incremental remap)
    # ------------------------------------------------------------------
    def _try_seed(self, seed: MapSeed) -> str | None:
        """Adopt the clean region of a prior map; return a fallback reason
        on any obstacle, or ``None`` on success.

        The soundness argument, node by node: a prior node's *witness* is
        the probe string whose walk identified it. If that route's
        footprint (every wire end it reads — crossed wires plus the failure
        pin, see
        :meth:`repro.simulator.path_eval.IncrementalPathEvaluator.touches`)
        is disjoint from ``seed.affected``, the route walks exactly as it did
        when the prior map was built, so the node still exists with the
        same identity. Likewise per wire: the prior run deduced the wire at
        prior-map port ``p`` of switch ``u`` from a probe exiting ``u``
        with turn ``p - entry(u)`` (relative-turn invariance: model indices
        are ports minus the entry port); if that route is also clean, the
        wire still hangs where the model says. Clean nodes become explored
        vertices, clean wires become links, and every kept switch adjacent
        to anything dropped returns to the frontier with its known indices
        pre-fed — the explore loop then re-probes only the dirty region.
        """
        svc = self._svc
        crosses = getattr(svc, "route_crosses", None)
        if crosses is None:
            return "service cannot correlate routes with wire ends"
        prior = seed.network
        h0 = svc.mapper_host
        if h0 not in prior or not prior.is_host(h0):
            return "mapper host absent from the prior map"
        affected = seed.affected
        order = sorted(prior.nodes)

        # Entry ports (prior-map coordinates) and cleanliness, per node.
        # When the seed supplies entry ports (it came straight from a prior
        # run's MapResult) trust the witnesses — the confirmation frontier
        # and the explore loop's contradiction checks catch anything stale.
        # Otherwise re-walk each witness over the prior map defensively.
        pre = seed.entries
        entries: dict[str, int] = {}
        clean: dict[str, bool] = {}
        for name in order:
            wit = seed.witnesses.get(name)
            if wit is None:
                return f"prior map carries no witness for {name}"
            if prior.is_host(name):
                if name == h0:
                    if wit != ():
                        return "mapper host witness is not empty"
                elif pre is None:
                    path = evaluate_route(prior, h0, wit)
                    if (
                        path.status is not PathStatus.DELIVERED
                        or path.delivered_to != name
                    ):
                        return f"witness for {name} does not reach it"
            elif pre is not None:
                entry = pre.get(name)
                if entry is None:
                    return f"prior map carries no entry port for {name}"
                entries[name] = entry
            else:
                path = evaluate_route(prior, h0, wit)
                if path.status is not PathStatus.STRANDED or path.nodes[-1] != name:
                    return f"witness for {name} does not reach it"
                entries[name] = path.traversals[-1].dst.port
            clean[name] = not affected or not crosses(wit, affected)
        if not clean[h0]:
            return "mapper host attachment is inside the dirty region"
        dirty_count = sum(1 for name in order if not clean[name])
        if 2 * dirty_count > len(order):
            # A seed that keeps less than half the map is degenerate: the
            # explore loop would rediscover the dirty majority from many
            # boundary switches at once, spawning duplicate vertices whose
            # merges cost more probes than a cold run. Report it so the
            # caller restarts from scratch.
            return (
                f"dirty region covers {dirty_count} of {len(order)} prior "
                "nodes; from-scratch is cheaper"
            )

        # Adopt clean nodes (deterministic order: vertex ids pick merge
        # representatives and the final switch numbering).
        made: dict[str, MergedVertex] = {}
        for name in order:
            if not clean[name]:
                continue
            wit = tuple(seed.witnesses[name])
            if prior.is_host(name):
                v = self._new_vertex(KIND_HOST, wit, host_name=name)
                self._hosts[name] = v
            else:
                v = self._new_vertex(KIND_SWITCH, wit)
                v.explored = True
            made[name] = v

        # Re-link clean wires; anything touching a dropped node or a dirty
        # wire marks its surviving switch ends as frontier-boundary.
        boundary: set[str] = set()
        for wire in sorted(prior.wires, key=lambda w: (w.a, w.b)):
            ends = (wire.a, wire.b)
            kept = [e for e in ends if e.node in made]
            if len(kept) < 2:
                boundary.update(e.node for e in kept)
                continue
            wire_clean = True
            for end in ends:
                if prior.is_host(end.node):
                    # A host's only wire is the last hop of its witness:
                    # the node's own cleanliness already certifies it.
                    continue
                turn = end.port - entries[end.node]
                if turn == 0:
                    # The witness entered through this very wire; certified
                    # by the node check above.
                    continue
                probe = tuple(seed.witnesses[end.node]) + (turn,)
                wire_clean = not crosses(probe, affected)
                break
            if not wire_clean:
                boundary.update(e.node for e in ends)
                continue
            u, w = ends
            self._link(
                made[u.node],
                self._seed_index(prior, u, entries),
                made[w.node],
                self._seed_index(prior, w, entries),
            )
        self._drain_mergelist()

        for name in sorted(boundary):
            v = made.get(name)
            if v is not None and v.kind == KIND_SWITCH:
                v.explored = False
                self._frontier.append(v)
        self._kept_nodes = len(made)
        self._snapshot()

        # The confirmation frontier: one identifying probe per kept host
        # (the paper-faithful re-check). Collectively these re-exercise the
        # witness tree of the kept region in-band; any mismatch means the
        # delta under-describes reality, and the only sound move is
        # starting over.
        for name in order:
            if name == h0 or not clean.get(name) or not prior.is_host(name):
                continue
            if svc.probe_host(tuple(seed.witnesses[name])) != name:
                return f"confirmation probe contradicted {name}"
        return None

    @staticmethod
    def _seed_index(
        net: Network, end, entries: dict[str, int]
    ) -> int:
        """Model index of a prior-map wire end: port minus entry port."""
        if net.is_host(end.node):
            return 0
        return end.port - entries[end.node]

    def _explore(self, v: MergedVertex) -> None:
        plan = self._planner.new_plan()
        # Knowledge inherited from merged replicates: every known index is a
        # confirmed wire (narrowing the entry-port window), and re-probing it
        # cannot teach anything — an actual port has exactly one cable.
        for idx in v.nbrs:
            plan.feed(idx, True)
        while (turn := plan.next_turn()) is not None:
            if v.nbrs.get(turn):
                continue
            turns = v.probe_string + (turn,)
            response = self._probe_pair(turns)
            plan.feed(turn, response is not None)
            if response is None:
                continue
            if response == KIND_SWITCH:
                child = self._new_vertex(KIND_SWITCH, turns)
                self._link(v, turn, child, 0)
                self._frontier.append(child)
            else:
                child = self._new_vertex(KIND_HOST, turns, host_name=response)
                self._link(v, turn, child, 0)
                self._register_host(child)
            # The link may have created a second wire-end at this index of
            # an already-merged v; deductions queue up and are drained after
            # the switch is fully explored (modification 1 allows any
            # interleaving; per-switch draining matches the mergelist text).

    def _probe_pair(self, turns: Turns) -> str | None:
        """The probe of Section 2.3: R(turns) via the configured order."""
        prof = self._prof
        t0 = prof.clock() if prof is not None else 0.0
        if self._host_first:
            response = self._svc.probe_host(turns)
            if response is None:
                response = (
                    KIND_SWITCH if self._svc.probe_switch(turns) else None
                )
        elif self._svc.probe_switch(turns):
            response = KIND_SWITCH
        else:
            response = self._svc.probe_host(turns)
        if prof is not None:
            prof.add("probe", prof.clock() - t0)
        return response

    # ------------------------------------------------------------------
    # instrumentation (Figure 8)
    # ------------------------------------------------------------------
    def _snapshot(self, final: bool = False) -> None:
        n_nodes = len(self._live)
        if n_nodes > self._peak_nodes:
            self._peak_nodes = n_nodes
        if not self._record_growth:
            return
        live = self._live_vertices()
        n_edges = sum(v.degree() for v in live) // 2
        n_frontier = 0
        pending: set[int] = set()
        for entry in self._frontier:
            rep = self._find(entry)
            if not rep.dead and not rep.explored and rep.vid not in pending:
                pending.add(rep.vid)
                n_frontier += 1
        self._growth.append(
            GrowthSample(
                exploration=self._explorations,
                n_nodes=n_nodes,
                n_edges=n_edges,
                n_frontier=n_frontier,
            )
        )
