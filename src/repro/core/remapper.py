"""The periodic remapping daemon: the system behavior of the abstract.

"The system periodically discovers the network topology and uses it to
compute and to distribute a set of mutually deadlock-free routes to all
network interfaces."

:func:`map_cycle` and :func:`route_cycle` are that loop's two halves —
depth, probe stack, mapper, seed, ``map()``; then orient, paths, tables and
the Dally–Seitz check — and the only copy of them: the daemon here and the
map server's worker (:func:`repro.service.workers.run_map_job`) both run
these (``docs/ARCHITECTURE.md``, "The remap cycle").

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
from repro.core.mapper_protocol import (
    Mapper,
    build_mapper_service,
    resolve_mapper_factory,
)
from repro.routing.compile_routes import RouteGeneration, RouteMemo, compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.incremental import DistributionReport, distribute_incremental
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.simulator.faults import FaultModel
from repro.simulator.stack import ProbeLayer
from repro.topology.analysis import (
    DistanceMemo,
    effective_network,
    recommended_search_depth,
)
from repro.topology.delta import EMPTY_DELTA, seedable_removals
from repro.topology.diff import MapDiff, diff_networks
from repro.topology.model import Network

__all__ = [
    "MAX_EXPLORATIONS",
    "RemapCycle",
    "RemapperDaemon",
    "map_cycle",
    "route_cycle",
]

#: Switch-exploration bound per cycle, for mappers that take one. A
#: resource guard, not a tuning knob: the full NOW needs 135 explorations
#: and a three-tier fat tree k=10 needs 1491.
MAX_EXPLORATIONS = 20_000


def map_cycle(
    net: Network,
    mapper_host: str,
    *,
    faults: FaultModel | None = None,
    mapper: str | Callable[[object, int], Mapper] = "berkeley",
    seed: MapSeed | None = None,
    search_depth: int | None = None,
    max_explorations: int | None = MAX_EXPLORATIONS,
    memo: DistanceMemo | None = None,
    **stack_kwargs: Any,
) -> tuple[MapResult, Any]:
    """The mapping half of a remap cycle; returns the result and the
    probe stack it ran on.

    ``mapper`` is a :data:`~repro.core.mapper_protocol.MAPPER_REGISTRY`
    name — built with this function's defaults where the algorithm's
    constructor accepts them, on the probe-service class its spec
    requires — or a ``(service, depth) -> Mapper`` callable.
    ``stack_kwargs`` (``layers=``, ``collision=``, ``jitter=``, ``rng=``) go to
    :func:`~repro.simulator.stack.build_service_stack`. A ``seed`` handed
    to a mapper without ``seed_with`` is dropped, and the result says so.
    With no ``search_depth`` the cycle maps at the proven depth, through
    ``memo`` when the caller keeps one across cycles.
    Raises :class:`~repro.core.mapper.MappingError` on a deduction
    contradiction.
    """
    fabric = net
    if faults is not None:
        stack_kwargs["faults"] = faults
        if faults.dead_wires:
            # Cutting cables can grow the diameter (a cut ring becomes a
            # chain) and a dead wire answers no probe, so the proven
            # ``Q + D + 1`` is taken on what the mapper can still reach.
            fabric = effective_network(net, faults, mapper_host)
    depth = search_depth
    if depth is None:
        depth = recommended_search_depth(fabric, mapper_host, memo)
    svc = build_mapper_service(mapper, net, mapper_host, **stack_kwargs)
    built = resolve_mapper_factory(
        mapper,
        host_first=False,
        max_explorations=max_explorations,
        radix=net.default_radix,
    )(svc, depth)
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
) -> tuple[RouteGeneration, bool]:
    """The routing half: UP*/DOWN* tables for ``new_map`` and their
    Dally–Seitz verdict. ``memo`` keeps the root pick's BFS rows across
    the maps of one caller, and ``routes`` the generation the caller last
    committed to it, which the tables are patched from when exact; the
    caller commits the tables once it has adopted them.

    Raises ``ValueError`` when the map is too degenerate to orient (e.g.
    the mapper host alone behind a cut).
    """
    orientation = orient_updown(new_map, memo=memo)
    paths = all_pairs_updown_paths(new_map, orientation)
    tables = compile_route_tables(new_map, paths, memo=routes)
    return tables, routes_deadlock_free(tables)


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

    A cycle is :func:`map_cycle`, a diff against the previous map and —
    only when something changed — :func:`route_cycle` plus incremental
    distribution. ``mapper_factory`` (a registry name or a ``(service,
    depth) -> Mapper`` callable), ``faults`` and ``layers`` go to
    :func:`map_cycle` unchanged; the same layer objects join every
    cycle's stack, so a layer with per-cycle state rearms itself (the
    chaos runner's does). ``faults`` also feeds seed planning, which
    ``incremental`` turns on; every fallback path degrades to the plain
    from-scratch cycle and says why. Every daemon keeps two
    :class:`~repro.topology.analysis.DistanceMemo` objects across cycles,
    one for the search depth on the true fabric and one for the root pick
    on its maps, and ``route_memo``, a
    :class:`~repro.routing.compile_routes.RouteMemo` holding
    ``current_tables`` for the next cycle's routes to be patched from
    (committed only once a cycle's whole route half has succeeded): all
    three are exact, so none is a setting.
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
        self._net = net
        self._mapper_host = mapper_host
        self._search_depth = search_depth
        self._mapper = mapper_factory or "berkeley"
        self._faults = faults
        self._layers = tuple(layers)
        self._incremental = incremental
        self.history: list[RemapCycle] = []
        self.current_map: Network | None = None
        self.current_tables: RouteGeneration | None = None
        self._last_result: MapResult | None = None
        self._net_epoch: int | None = None
        self._fault_epoch: int | None = None
        self._scratch_probes: int | None = None
        self._depth_memo = DistanceMemo()
        self._root_memo = DistanceMemo()
        self.route_memo = RouteMemo()

    # ------------------------------------------------------------------
    def _plan_seed(self) -> tuple[MapSeed | None, str | None]:
        """Build a seed from the previous cycle's map and the delta
        journals (``last map's epoch snapshot .. now``), or explain why
        this cycle must run from scratch. A first cycle has nothing to
        fall back from: no seed, no reason.
        """
        prior = self._last_result
        if prior is None or self._net_epoch is None:
            return None, None
        fault = EMPTY_DELTA
        if self._faults is not None and self._fault_epoch is not None:
            fault = self._faults.affected_since(self._fault_epoch)
        affected, reason = seedable_removals(
            self._net.affected_since(self._net_epoch), fault
        )
        if affected is None:
            return None, reason
        return MapSeed.from_result(prior, affected), None

    def run_cycle(self) -> RemapCycle:
        """One complete cycle; appends to and returns from ``history``."""
        seed: MapSeed | None = None
        plan_fallback: str | None = None
        if self._incremental:
            seed, plan_fallback = self._plan_seed()
        # Snapshot the journals *before* mapping: anything that mutates
        # mid-run lands after these epochs and is charged to the next
        # cycle's delta, never silently skipped.
        net_epoch = self._net.topology_epoch
        fault_epoch = (
            self._faults.fault_epoch if self._faults is not None else None
        )
        result, _ = map_cycle(
            self._net,
            self._mapper_host,
            faults=self._faults,
            mapper=self._mapper,
            seed=seed,
            search_depth=self._search_depth,
            memo=self._depth_memo,
            layers=self._layers,
        )
        new_map = result.network
        self._last_result = result
        self._net_epoch = net_epoch
        self._fault_epoch = fault_epoch
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
        rerouted = not (diff.identical and tables is not None)
        safe: bool | None = None
        report: DistributionReport | None = None
        elapsed = result.stats.elapsed_ms
        if rerouted:
            tables, safe = route_cycle(new_map, self._root_memo, self.route_memo)
            # Incremental distribution: push only per-host deltas against
            # the previous generation (the first cycle degenerates to a
            # full push).
            report = distribute_incremental(
                new_map,
                self._mapper_host,
                tables,
                self.current_tables,
            )
            self.route_memo.commit(tables)
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
