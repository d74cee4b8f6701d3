"""Deadlock-free route computation and distribution (Section 5.5).

From a network map the system derives mutually deadlock-free routes with
UP*/DOWN* routing [Autonet]: a BFS edge ordering from a root switch chosen
as far from all hosts as possible, such that every valid route follows zero
or more up edges then zero or more down edges — a route never turns from a
down edge onto an up edge. Locally dominant switches (unusable under the
raw BFS labeling) are relabeled per the paper's heuristic.

- :mod:`~repro.routing.updown` — root selection, BFS labeling, edge
  orientation, dominant-switch relabeling;
- :mod:`~repro.routing.paths` — all-pairs shortest compliant paths
  (Floyd–Warshall on the up/down phase graph, as in the paper, plus an
  independent BFS method for cross-checking);
- :mod:`~repro.routing.compile_routes` — absolute paths to relative-turn
  source routes, verified by simulation;
- :mod:`~repro.routing.deadlock` — channel-dependency-graph acyclicity
  (Dally–Seitz) over complete route sets;
- :mod:`~repro.routing.incremental` — route-table distribution to all
  interfaces, full or only what changed, and the one check that a
  generation's routes deliver on a fabric.
"""

from repro.routing.updown import UpDownOrientation, orient_updown
from repro.routing.paths import RoutingPaths, all_pairs_updown_paths
from repro.routing.compile_routes import RouteTable, compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.incremental import (
    DistributionReport,
    diff_route_tables,
    distribute_incremental,
    route_deliveries,
)
from repro.routing.lash import LashRouting, lash_route_tables
from repro.routing.quality import RouteQuality, analyze_routes

__all__ = [
    "DistributionReport",
    "LashRouting",
    "RouteQuality",
    "analyze_routes",
    "diff_route_tables",
    "distribute_incremental",
    "lash_route_tables",
    "RouteTable",
    "RoutingPaths",
    "UpDownOrientation",
    "all_pairs_updown_paths",
    "compile_route_tables",
    "orient_updown",
    "route_deliveries",
    "routes_deadlock_free",
]
