"""Section 5.5's qualitative routing claims, measured.

"The goodness of UP*/DOWN* routes is known to be highly topology-dependent.
Two common effects are increased congestion about the root and the creation
of locally dominant switches." And on load balance: "where multiple edges
are available between two switches, the algorithm has the option of
randomly choosing among them."

This experiment quantifies all three on representative topologies:

- the NOW subcluster C (the paper's far-from-hosts root choice *avoids*
  root congestion: packets stop at the least common ancestor);
- a ring (the label-maximal edge dies, traffic funnels through the root);
- the dominant-switch diamond with the relabeling heuristic on and off;
- parallel-cable load spread with and without randomized wire choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import system
from repro.experiments.tables import print_table
from repro.routing.compile_routes import compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.quality import analyze_routes, parallel_wire_spread
from repro.routing.updown import orient_updown
from repro.topology.builder import NetworkBuilder
from repro.topology.generators import build_ring
from repro.topology.model import Network

__all__ = ["QualityRow", "run", "main"]


@dataclass(frozen=True, slots=True)
class QualityRow:
    topology: str
    root: str
    relabeled: int
    root_congestion: float
    max_load: int
    mean_load: float
    unused_switches: int
    mean_inflation: float


def _diamond() -> Network:
    b = NetworkBuilder()
    b.switches("root", "left", "right", "far")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "left")
    b.attach("h1", "left")
    b.attach("h2", "right")
    b.attach("h3", "right")
    b.link("root", "left")
    b.link("root", "right")
    b.link("left", "far")
    b.link("right", "far")
    return b.build()


def _measure(name: str, net: Network, *, root=None, relabel=True) -> QualityRow:
    ori = orient_updown(net, root=root, relabel_dominant=relabel)
    paths = all_pairs_updown_paths(net, ori)
    tables = compile_route_tables(net, paths)
    q = analyze_routes(net, tables, ori)
    return QualityRow(
        topology=name,
        root=ori.root,
        relabeled=len(ori.relabeled),
        root_congestion=q.root_congestion_factor,
        max_load=q.max_channel_load,
        mean_load=q.mean_channel_load,
        unused_switches=len(q.unused_switches),
        mean_inflation=q.mean_path_inflation,
    )


def run() -> list[QualityRow]:
    rows = [
        _measure("NOW subcluster C", system("C").net),
        _measure("6-switch ring", build_ring(6, hosts_per_switch=1)),
        _measure("diamond (relabel on)", _diamond(), root="root"),
        _measure(
            "diamond (relabel off)", _diamond(), root="root", relabel=False
        ),
    ]
    return rows


def spread_demo() -> dict:
    """Load spread over the parallel cables of a two-switch network."""
    b = NetworkBuilder()
    b.switches("s0", "s1")
    for i in range(8):
        b.host(f"h{i}")
    for i in range(4):
        b.attach(f"h{i}", "s0")
    for i in range(4, 8):
        b.attach(f"h{i}", "s1")
    for _ in range(3):
        b.link("s0", "s1")
    net = b.build()
    ori = orient_updown(net)
    paths = all_pairs_updown_paths(net, ori)
    tables = compile_route_tables(net, paths, seed=11)
    return parallel_wire_spread(net, tables)


@dataclass(frozen=True, slots=True)
class SchemeRow:
    topology: str
    scheme: str
    mean_inflation: float
    max_inflation: float
    virtual_layers: int
    deadlock_free: bool


def compare_schemes() -> list[SchemeRow]:
    """UP*/DOWN* vs LASH (Section 6's 'more robust strategies' ask).

    UP*/DOWN* needs no virtual channels but inflates paths on unlucky
    topologies; LASH keeps every route minimal at the cost of per-layer
    virtual channels.
    """
    from repro.routing.deadlock import routes_deadlock_free
    from repro.routing.lash import lash_route_tables

    rows: list[SchemeRow] = []
    cases = [
        ("NOW subcluster C", system("C").net),
        ("8-switch ring", build_ring(8, hosts_per_switch=1)),
    ]
    for name, net in cases:
        ori = orient_updown(net)
        paths = all_pairs_updown_paths(net, ori)
        ud = compile_route_tables(net, paths)
        udq = analyze_routes(net, ud, ori)
        rows.append(
            SchemeRow(
                topology=name,
                scheme="UP*/DOWN*",
                mean_inflation=udq.mean_path_inflation,
                max_inflation=udq.max_path_inflation,
                virtual_layers=1,
                deadlock_free=routes_deadlock_free(ud),
            )
        )
        lash = lash_route_tables(net)
        lashq = analyze_routes(net, lash.tables)
        rows.append(
            SchemeRow(
                topology=name,
                scheme="LASH",
                mean_inflation=lashq.mean_path_inflation,
                max_inflation=lashq.max_path_inflation,
                virtual_layers=lash.n_layers,
                deadlock_free=all(
                    routes_deadlock_free(lash.layer_routes(i))
                    for i in range(lash.n_layers)
                ),
            )
        )
    return rows


def main() -> None:
    print_table(
        [
            "topology",
            "root",
            "relabeled",
            "root congestion",
            "max load",
            "mean load",
            "unused sw",
            "inflation",
        ],
        [
            (
                r.topology,
                r.root,
                r.relabeled,
                f"{r.root_congestion:.2f}",
                r.max_load,
                f"{r.mean_load:.1f}",
                r.unused_switches,
                f"{r.mean_inflation:.2f}",
            )
            for r in run()
        ],
        title="Section 5.5: UP*/DOWN* route quality",
    )
    spread = spread_demo()
    for pair, counts in spread.items():
        print(f"parallel-cable load spread {pair}: {counts} "
              "(randomized wire choice)")
    print()
    print_table(
        ["topology", "scheme", "mean inflation", "max inflation",
         "virtual layers", "deadlock-free"],
        [
            (
                r.topology,
                r.scheme,
                f"{r.mean_inflation:.2f}",
                f"{r.max_inflation:.2f}",
                r.virtual_layers,
                "yes" if r.deadlock_free else "NO",
            )
            for r in compare_schemes()
        ],
        title="Section 6: UP*/DOWN* vs LASH (virtual-channel layered routing)",
    )


if __name__ == "__main__":
    main()
