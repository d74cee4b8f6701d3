#!/usr/bin/env python3
"""The full production pipeline on the 100-node Berkeley NOW.

"The system periodically discovers the network topology and uses it to
compute and to distribute a set of mutually-deadlock free routes to all
network interfaces." This example runs that whole cycle:

1. build the C+A+B system (100 hosts, 40 switches, 193 links — Figure 5);
2. map it in-band with the Berkeley Algorithm;
3. orient the map with UP*/DOWN* (root far from hosts, dominant-switch
   relabeling);
4. compute all-pairs deadlock-free routes (Floyd–Warshall on the phase
   graph) and compile them to relative-turn source routes;
5. verify every route delivers on the *actual* network and that the
   channel dependency graph is acyclic;
6. distribute the route tables to all 100 interfaces.

Run:  python examples/map_and_route_now.py
"""

from repro import (
    build_service_stack,
    all_pairs_updown_paths,
    build_full_now,
    compile_route_tables,
    core_network,
    create_mapper,
    distribute_incremental,
    match_networks,
    orient_updown,
    recommended_search_depth,
    routes_deadlock_free,
)
from repro.simulator.path_eval import PathStatus, evaluate_route


def main() -> None:
    actual = build_full_now()
    mapper_host = "C-svc"
    print(f"actual system: {actual}  (Figure 5)")

    # --- 1+2: in-band mapping -----------------------------------------
    depth = recommended_search_depth(actual, mapper_host)
    svc = build_service_stack(actual, mapper_host)
    result = create_mapper("berkeley", svc, search_depth=depth).map()
    the_map = result.network
    assert match_networks(the_map, core_network(actual))
    print(
        f"mapped: {the_map}  with {result.stats.total_probes} probes in "
        f"{result.elapsed_ms:.0f} simulated ms (paper: ~1011 ms)"
    )

    # --- 3: UP*/DOWN* orientation ---------------------------------------
    orientation = orient_updown(the_map)
    print(
        f"UP*/DOWN* root: {orientation.root}"
        + (
            f"; locally dominant switches relabeled: {orientation.relabeled}"
            if orientation.relabeled
            else ""
        )
    )

    # --- 4: all-pairs compliant routes ----------------------------------
    paths = all_pairs_updown_paths(the_map, orientation)
    tables = compile_route_tables(the_map, paths)
    n_routes = sum(len(t) for t in tables.values())
    print(f"computed {n_routes} host-to-host routes "
          f"({the_map.n_hosts} hosts, all pairs)")

    # --- 5: verification --------------------------------------------------
    assert routes_deadlock_free(tables)
    print("channel dependency graph: acyclic (mutually deadlock-free)")

    failures = 0
    longest = 0
    for table in tables.values():
        for dst, route in table.routes.items():
            outcome = evaluate_route(actual, table.host, route.turns)
            ok = (
                outcome.status is PathStatus.DELIVERED
                and outcome.delivered_to == dst
            )
            failures += not ok
            longest = max(longest, route.hops)
    print(
        f"delivery check on the actual network: "
        f"{n_routes - failures}/{n_routes} routes deliver "
        f"(longest route: {longest} hops)"
    )

    # --- 6: distribution ---------------------------------------------------
    report = distribute_incremental(the_map, mapper_host, tables, None)
    print(
        f"distributed tables to {len(report.delivered)} interfaces "
        f"({report.bytes_sent} bytes, {report.elapsed_ms:.1f} ms)"
    )
    assert report.ok and failures == 0
    print("\nfull map -> routes -> distribute cycle completed and verified.")


if __name__ == "__main__":
    main()
