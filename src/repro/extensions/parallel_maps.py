"""Parallel mapping with partial-map exchange (Section 6).

"Parallel mapping algorithms have the potential to increase performance.
... It is plausible that every network host could map local regions, and
upon discovering another host exchange their partial maps. The central
question is how to merge such local views into a stable, globally-
consistent one."

This module answers that question for quiescent networks:

- each participating host maps only its *local region* (bounded search
  depth and/or exploration budget) — cheap, and embarrassingly parallel;
- partial maps are merged by the paper's own deduction applied at map
  granularity, on the mapper's own engine
  (:class:`repro.core.model_graph.ModelGraph`): every view node is a
  vertex, every view wire a link at its port numbers. A host's unique
  name merges its vertices across views (the anchor of Lemma 3), which
  puts two wire-ends on its one port, so the switches behind them are
  replicates and merge under the port shift that aligns the shared end —
  and so on, wire by wire, exactly as in the correctness proof. Structure
  present in only one view is *added*; structure present in both must
  agree or :class:`MergeConflict` is raised (soundness: under quiescence
  honest partial views can never disagree);
- views that no chain of shared hosts connects stay separate islands (the
  honest answer when nobody mapped the region between them).

The wall-clock win is the paper's conjecture: total latency is the *max*
of the local mapping times (plus merging, which sends no probes) instead
of one deep exploration — see :func:`parallel_mapping_study`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.model_graph import KIND_HOST, KIND_SWITCH, MergedVertex, ModelGraph
from repro.core.parallel import timed_run
from repro.core.relative import MappingError
from repro.topology.model import Network

__all__ = [
    "MergeConflict",
    "PartialMap",
    "ParallelMappingReport",
    "map_local_region",
    "merge_partial_maps",
    "parallel_mapping_study",
]


class MergeConflict(MappingError):
    """Two partial views assert contradictory wiring."""


@dataclass(slots=True)
class PartialMap:
    """One host's local view of the network."""

    owner: str
    network: Network
    probes: int
    elapsed_ms: float


def map_local_region(
    net: Network,
    mapper_host: str,
    *,
    local_depth: int,
    max_explorations: int | None = 60,
) -> PartialMap:
    """Map the region within ``local_depth`` probe turns of one host."""
    result = timed_run(
        net, mapper_host, search_depth=local_depth, max_explorations=max_explorations
    )
    return PartialMap(
        owner=mapper_host,
        network=result.network,
        probes=result.stats.total_probes,
        elapsed_ms=result.stats.elapsed_ms,
    )


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------


def merge_partial_maps(partials: list[PartialMap]) -> list[Network]:
    """Merge partial views into globally consistent maps.

    Every view node becomes a vertex of one
    :class:`~repro.core.model_graph.ModelGraph` and every view wire a link
    at its port numbers; registering the hosts merges equal names, and one
    drain of the mergelist does the rest. Returns one :class:`Network` per
    connected island (a single network when every view is transitively
    bridged by shared hosts), in the order the islands first appear in
    ``partials`` and each at the switch radix of its first view. Raises
    :class:`MergeConflict` when the views contradict each other.
    """
    if not partials:
        return []
    graph = ModelGraph(radix=partials[0].network.default_radix)
    host_meta: dict[str, dict] = {}
    radix_of: list[int] = []  # by vertex id: the radix of the view it is from
    try:
        for view in (partial.network for partial in partials):
            made = {}
            for name in view.nodes:
                if view.is_host(name):
                    host_meta.setdefault(name, dict(view.meta(name)))
                    made[name] = graph._new_vertex(KIND_HOST, (), name)
                else:
                    made[name] = graph._new_vertex(KIND_SWITCH, ())
                radix_of.append(view.default_radix)
            for wire in view.wires:
                a, b = wire.a, wire.b
                graph._link(made[a.node], a.port, made[b.node], b.port)
            for host in view.hosts:
                graph._register_host(made[host])
        graph._drain_mergelist()
        return [
            graph._build_network(island, radix_of[island[0].vid], host_meta)[0]
            for island in _islands(graph)
        ]
    except MappingError as exc:
        raise MergeConflict(str(exc)) from exc


def _islands(graph: ModelGraph) -> list[list[MergedVertex]]:
    """Connected components of the live graph, in creation order."""
    seen: set[int] = set()
    islands = []
    for v in graph._live_vertices():
        if v.vid in seen:
            continue
        seen.add(v.vid)
        island = [v]
        for u in island:  # grows as the walk reaches new vertices
            for ends in u.nbrs.values():
                for w, _ in ends:
                    if w.vid not in seen:
                        seen.add(w.vid)
                        island.append(w)
        islands.append(island)
    return islands


# ----------------------------------------------------------------------
# the study
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ParallelMappingReport:
    """Cost/quality comparison: parallel local mapping vs one deep mapper."""

    n_mappers: int
    local_depth: int
    #: The merged views, one network per island (see merge_partial_maps).
    islands: list[Network]
    total_probes: int
    max_local_ms: float  # parallel wall clock
    sum_local_ms: float
    partials: list[PartialMap] = field(default_factory=list)


def parallel_mapping_study(
    net: Network,
    mappers: list[str],
    *,
    local_depth: int,
    max_explorations: int | None = 60,
) -> ParallelMappingReport:
    """Run local mappers in parallel (simulated) and merge their views."""
    if not mappers:
        raise ValueError("need at least one mapper host")
    partials = [
        map_local_region(
            net,
            host,
            local_depth=local_depth,
            max_explorations=max_explorations,
        )
        for host in mappers
    ]
    return ParallelMappingReport(
        n_mappers=len(mappers),
        local_depth=local_depth,
        islands=merge_partial_maps(partials),
        total_probes=sum(p.probes for p in partials),
        max_local_ms=max(p.elapsed_ms for p in partials),
        sum_local_ms=sum(p.elapsed_ms for p in partials),
        partials=partials,
    )
