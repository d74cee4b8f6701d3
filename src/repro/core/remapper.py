"""The periodic remapping daemon: the system behavior of the abstract.

"The system periodically discovers the network topology and uses it to
compute and to distribute a set of mutually deadlock-free routes to all
network interfaces."

:func:`map_cycle` and :func:`route_cycle` are that loop's two halves —
depth, probe stack, mapper, seed, ``map()``; then orient, paths and
tables — and the only copy of them: the daemon here and the map server's
worker (:func:`repro.service.workers.run_map_job`) both run these
(``docs/ARCHITECTURE.md``, "The remap cycle"), each through one
:class:`CycleState`, the work that loop carries from one cycle to the
next. The Dally–Seitz check runs where a generation is adopted: in the
daemon's cycle, and in the map server on what a worker sends back.

:class:`RemapperDaemon` packages one complete cycle — map, diff against the
previous map, and (only when something changed) recompute + verify +
distribute routes — and keeps a history of cycles so operators can see what
changed when. The daemon is driven explicitly (``run_cycle()``) so tests
and simulations control time; a deployment would call it on a timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.mapper import MapResult, MapSeed
from repro.core.mapper_protocol import Mapper, get_mapper_spec
from repro.routing.compile_routes import RouteGeneration, RouteMemo, compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.incremental import DistributionReport, distribute_incremental
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.simulator.faults import FaultModel
from repro.simulator.stack import ProbeLayer, build_service_stack
from repro.topology.analysis import DistanceMemo, recommended_search_depth
from repro.topology.delta import seedable_removals
from repro.topology.diff import MapDiff, diff_networks
from repro.topology.model import Network, PortRef

__all__ = [
    "CycleState",
    "RemapCycle",
    "RemapperDaemon",
    "map_cycle",
    "route_cycle",
]

def map_cycle(
    net: Network,
    mapper_host: str,
    *,
    faults: FaultModel | None = None,
    mapper: str | Callable[[object, int], Mapper] = "berkeley",
    seed: MapSeed | None = None,
    search_depth: int | None = None,
    memo: DistanceMemo | None = None,
    **stack_kwargs: Any,
) -> tuple[MapResult, Any]:
    """The mapping half of a remap cycle; returns the result and the
    probe stack it ran on.

    ``mapper`` is a :data:`~repro.core.mapper_protocol.MAPPER_REGISTRY`
    name or a ``(service, depth) -> Mapper`` callable. A name is built as
    ``spec.factory(service, search_depth=depth)``, and the mapper reads
    the switch radix from that service; any other option is the
    callable's to pass.
    ``stack_kwargs`` (``layers=``, ``collision=``, ``jitter=``, ``rng=``) go to
    :func:`~repro.simulator.stack.build_service_stack`. A ``seed`` handed
    to a mapper without ``seed_with`` is dropped, and the result says so.
    With no ``search_depth`` the cycle maps at the proven depth, through
    ``memo`` when the caller keeps one across cycles.
    Raises :class:`~repro.core.mapper.MappingError` on a deduction
    contradiction, and its :class:`~repro.core.mapper.ExplorationLimitError`
    when a map reaches the exploration limit unfinished.
    """
    if faults is not None:
        stack_kwargs["faults"] = faults
    depth = search_depth
    if depth is None:
        depth = recommended_search_depth(net, mapper_host, memo)
    svc = build_service_stack(net, mapper_host, **stack_kwargs)
    if callable(mapper):
        built = mapper(svc, depth)
    else:
        built = get_mapper_spec(mapper).factory(svc, search_depth=depth)
    seeder = getattr(built, "seed_with", None)
    if seed is not None and seeder is not None:
        seeder(seed)
    result = built.map()
    if seed is not None and seeder is None:
        result.seed_fallback = "mapper does not support seeding"
    return result, svc


def route_cycle(
    new_map: Network,
    memo: DistanceMemo | None = None,
    routes: RouteMemo | None = None,
) -> RouteGeneration:
    """The routing half: UP*/DOWN* tables for ``new_map``. ``memo`` keeps
    the root pick's BFS rows across the maps of one caller, and ``routes``
    the generation the caller last committed to it, which the tables are
    patched from when exact; the caller checks the tables deadlock-free
    (:func:`~repro.routing.deadlock.routes_deadlock_free`) and commits
    them once it has adopted them.

    Raises ``ValueError`` when the map is too degenerate to orient (e.g.
    the mapper host alone behind a cut).
    """
    orientation = orient_updown(new_map, memo=memo)
    paths = all_pairs_updown_paths(new_map, orientation)
    return compile_route_tables(new_map, paths, memo=routes)


class CycleState:
    """What one remap loop carries from one cycle to the next.

    ``net`` is the fabric it maps. ``depth_memo`` keeps the search depth's
    flows and BFS rows on that fabric and ``root_memo`` the root pick's rows
    on its maps (two :class:`~repro.topology.analysis.DistanceMemo`);
    ``route_memo`` (a :class:`~repro.routing.compile_routes.RouteMemo`)
    holds the generation the caller last committed. ``last_result`` is the
    last map, taken with the epochs snapshotted before it ran, and
    :meth:`plan_seed` reads both. All of it is exact: it changes what a
    cycle costs, never what it answers, so none of it is a setting.
    :class:`RemapperDaemon` keeps one, and so does each map-server worker
    (:mod:`repro.service.workers`).
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.depth_memo = DistanceMemo()
        self.root_memo = DistanceMemo()
        self.route_memo = RouteMemo()
        self.last_result: MapResult | None = None
        #: The topology and fault epochs snapshotted before ``last_result``
        #: was mapped (the fault epoch ``None`` when it ran without faults).
        self._epochs: tuple[int, int | None] = (0, None)

    def plan_seed(
        self, faults: FaultModel | None
    ) -> tuple[MapSeed | None, str | None]:
        """Build a seed from the last map and the network's delta journal
        (``its epoch snapshot .. now``), or explain why the next map must
        run from scratch. A moved fault epoch (a probability change) has no
        wire-end footprint, so it forces a from-scratch map, after the
        journal window's own reason. Before a first map there is nothing to
        fall back from: no seed, no reason.
        """
        prior = self.last_result
        if prior is None:
            return None, None
        net_epoch, fault_epoch = self._epochs
        delta = self.net.affected_since(net_epoch)
        if (
            delta is not None
            and faults is not None
            and fault_epoch is not None
            and faults.fault_epoch != fault_epoch
        ):
            return None, "delta is unbounded (not describable by wire ends)"
        affected, reason = seedable_removals(delta)
        if affected is None:
            return None, reason
        return MapSeed.from_result(prior, affected), None

    def map(
        self, mapper_host: str, faults: FaultModel | None, **kwargs: Any
    ) -> tuple[MapResult, Any]:
        """:func:`map_cycle` on ``net`` through the depth memo; ``kwargs``
        go to it unchanged. The result becomes ``last_result``."""
        # Snapshot the epochs *before* mapping: anything that mutates
        # mid-run lands after these epochs and is charged to the next
        # cycle's delta, never silently skipped.
        epochs = (
            self.net.topology_epoch,
            faults.fault_epoch if faults is not None else None,
        )
        result, svc = map_cycle(
            self.net, mapper_host, faults=faults, memo=self.depth_memo, **kwargs
        )
        self.last_result, self._epochs = result, epochs
        return result, svc

    def route(self, new_map: Network) -> RouteGeneration:
        """:func:`route_cycle` on ``new_map`` through the root and route
        memos. The caller commits the tables to ``route_memo`` once it has
        adopted them."""
        return route_cycle(new_map, self.root_memo, self.route_memo)


def _wire_ends(net: Network) -> set[tuple[PortRef, PortRef]]:
    """Every wire of ``net`` by its two named ends."""
    return {(wire.a, wire.b) for wire in net.wires}


@dataclass(slots=True)
class RemapCycle:
    """Record of one map/diff/route cycle."""

    index: int
    map_result: MapResult
    diff: MapDiff
    routes_recomputed: bool
    deadlock_free: bool | None
    n_routes: int
    distribution: DistributionReport | None
    elapsed_ms: float
    #: Why an incremental cycle fell back to from-scratch, if it did
    #: (``None`` when it seeded successfully or seeding was never planned).
    seed_fallback: str | None = None
    #: Probes this cycle avoided versus the last from-scratch baseline
    #: (0 for unseeded cycles or before a baseline exists).
    probes_saved: int = 0

    @property
    def changed(self) -> bool:
        return not self.diff.identical

    @property
    def incremental(self) -> bool:
        """Whether this cycle's map adopted subtrees from the previous cycle."""
        return self.map_result.seeded


class RemapperDaemon:
    """Drive periodic remapping against a (possibly mutating) network.

    The daemon holds a reference to the *actual* network object purely as
    the thing to probe — all knowledge flows through the probe service
    built each cycle, so topology mutations between cycles are discovered
    in-band like the real system would.

    A cycle maps through ``state``, the daemon's one :class:`CycleState`,
    diffs against the previous map and — only when something changed, or
    an isomorphic map renamed a switch — routes through ``state``, checks
    the tables deadlock-free and distributes them incrementally, committing
    the tables to ``state.route_memo`` once the whole route half has
    succeeded.
    ``mapper_factory`` (a registry name or a ``(service,
    depth) -> Mapper`` callable), ``faults`` and ``layers`` go to
    :func:`map_cycle` unchanged; the same layer objects join every
    cycle's stack, so a layer with per-cycle state rearms itself (the
    chaos runner's does). ``faults`` also feeds seed planning, which
    ``incremental`` turns on; every fallback path degrades to the plain
    from-scratch cycle and says why.
    """

    def __init__(
        self,
        net: Network,
        mapper_host: str,
        *,
        search_depth: int | None = None,
        mapper_factory: Callable[[object, int], Mapper] | str | None = None,
        faults: FaultModel | None = None,
        layers: Iterable[ProbeLayer] = (),
        incremental: bool = False,
    ) -> None:
        self.state = CycleState(net)
        self._mapper_host = mapper_host
        self._search_depth = search_depth
        self._mapper = mapper_factory or "berkeley"
        self._faults = faults
        self._layers = tuple(layers)
        self._incremental = incremental
        self.history: list[RemapCycle] = []
        self.current_map: Network | None = None
        self.current_tables: RouteGeneration | None = None
        self._scratch_probes: int | None = None

    # ------------------------------------------------------------------
    def run_cycle(self) -> RemapCycle:
        """One complete cycle; appends to and returns from ``history``."""
        seed, plan_fallback = (
            self.state.plan_seed(self._faults) if self._incremental else (None, None)
        )
        result, _ = self.state.map(
            self._mapper_host,
            self._faults,
            mapper=self._mapper,
            seed=seed,
            search_depth=self._search_depth,
            layers=self._layers,
        )
        new_map = result.network
        probes_saved = 0
        if result.seeded:
            if self._scratch_probes is not None:
                probes_saved = max(
                    0, self._scratch_probes - result.stats.total_probes
                )
        else:
            self._scratch_probes = result.stats.total_probes

        if self.current_map is None:
            diff = MapDiff(identical=False)
        else:
            diff = diff_networks(self.current_map, new_map)

        tables = self.current_tables
        # An isomorphic map can still name its switches otherwise (a map
        # from scratch after a seeded one): the held tables name the old
        # map's switches, so they are kept only when the names agree too.
        rerouted = not (
            diff.identical
            and tables is not None
            and _wire_ends(new_map) == _wire_ends(self.current_map)
        )
        safe: bool | None = None
        report: DistributionReport | None = None
        elapsed = result.stats.elapsed_ms
        if rerouted:
            tables = self.state.route(new_map)
            safe = routes_deadlock_free(tables)
            # Incremental distribution: push only per-host deltas against
            # the previous generation (the first cycle degenerates to a
            # full push).
            report = distribute_incremental(
                new_map,
                self._mapper_host,
                tables,
                self.current_tables,
            )
            self.state.route_memo.commit(tables)
            self.current_map = new_map
            self.current_tables = tables
            elapsed += report.elapsed_ms
        cycle = RemapCycle(
            index=len(self.history),
            map_result=result,
            diff=diff,
            routes_recomputed=rerouted,
            deadlock_free=safe,
            n_routes=sum(len(t) for t in tables.values()),
            distribution=report,
            elapsed_ms=elapsed,
            seed_fallback=result.seed_fallback or plan_fallback,
            probes_saved=probes_saved,
        )
        self.history.append(cycle)
        return cycle

    # ------------------------------------------------------------------
    def route(self, src: str, dst: str):
        """The current source route between two hosts, or None."""
        if self.current_tables is None:
            return None
        table = self.current_tables.get(src)
        if table is None:
            return None
        compiled = table.routes.get(dst)
        return compiled.turns if compiled else None
