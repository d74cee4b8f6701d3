"""Section 5.5 — deadlock-free route computation from generated maps.

No figure in the paper, but the section makes checkable claims:

- from each map the system computes UP*/DOWN* routes between all hosts;
- the routes are mutually deadlock-free (channel dependency graph acyclic);
- locally dominant switches would be unusable and the relabeling heuristic
  restores them;
- routes are distributed to every interface and work on the real network.

The study runs the full pipeline (map -> orient -> Floyd-Warshall ->
compile -> verify -> distribute) on each measured system and reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.remapper import map_cycle
from repro.experiments.common import SYSTEMS, system
from repro.experiments.tables import print_table
from repro.routing import (
    all_pairs_updown_paths,
    compile_route_tables,
    distribute_incremental,
    orient_updown,
    route_deliveries,
    routes_deadlock_free,
)

__all__ = ["RoutingRow", "run", "main"]


@dataclass(frozen=True, slots=True)
class RoutingRow:
    system: str
    root: str
    relabeled_switches: int
    host_pairs: int
    routes: int
    deadlock_free: bool
    routes_valid_on_actual: int
    distribution_ok: bool
    distribution_ms: float
    max_route_hops: int


def run(systems=SYSTEMS) -> list[RoutingRow]:
    rows = []
    for name in systems:
        fixture = system(name)
        result, _ = map_cycle(
            fixture.net, fixture.mapper_host, search_depth=fixture.search_depth
        )
        m = result.network
        orientation = orient_updown(m)
        paths = all_pairs_updown_paths(m, orientation)
        tables = compile_route_tables(m, paths)
        n_hosts = m.n_hosts
        n_routes = sum(len(t) for t in tables.values())
        valid = sum(
            failure is None
            for _, _, failure in route_deliveries(tables, fixture.net)
        )
        max_hops = max(
            (route.hops for t in tables.values() for route in t.routes.values()),
            default=0,
        )
        report = distribute_incremental(m, fixture.mapper_host, tables, None)
        rows.append(
            RoutingRow(
                system=name,
                root=orientation.root,
                relabeled_switches=len(orientation.relabeled),
                host_pairs=n_hosts * (n_hosts - 1),
                routes=n_routes,
                deadlock_free=routes_deadlock_free(tables),
                routes_valid_on_actual=valid,
                distribution_ok=report.ok,
                distribution_ms=report.elapsed_ms,
                max_route_hops=max_hops,
            )
        )
    return rows


def main() -> None:
    rows = run()
    print_table(
        [
            "System",
            "root",
            "relabeled",
            "routes/pairs",
            "deadlock-free",
            "valid on actual",
            "distributed",
            "dist ms",
            "max hops",
        ],
        [
            (
                r.system,
                r.root,
                r.relabeled_switches,
                f"{r.routes}/{r.host_pairs}",
                "yes" if r.deadlock_free else "NO",
                f"{r.routes_valid_on_actual}/{r.routes}",
                "yes" if r.distribution_ok else "NO",
                f"{r.distribution_ms:.1f}",
                r.max_route_hops,
            )
            for r in rows
        ],
        title="Section 5.5: UP*/DOWN* routes from generated maps",
    )


if __name__ == "__main__":
    main()
