#!/usr/bin/env python3
"""Dynamic reconfiguration: the motivating scenario of the abstract.

"Because of their core role, these networks should be dynamically
reconfigurable, automatically adapting to the addition or removal of hosts,
switches and links." This example plays an operations timeline on
subcluster C and re-runs the map/route cycle after each change:

- a cable fails and is removed (the Figure 4 irregularity re-enacted);
- a new switch and five new hosts are added on spare ports;
- a host is removed.

After every event the mapper rediscovers the current truth from probes
alone and the routing layer recomputes deadlock-free routes for whatever
the network now looks like — no static topology assumptions anywhere.

Run:  python examples/dynamic_reconfiguration.py
"""

from repro import (
    build_service_stack,
    all_pairs_updown_paths,
    build_subcluster,
    compile_route_tables,
    core_network,
    create_mapper,
    match_networks,
    orient_updown,
    recommended_search_depth,
    routes_deadlock_free,
)


def remap(actual, mapper_host: str, event: str) -> None:
    depth = recommended_search_depth(actual, mapper_host)
    svc = build_service_stack(actual, mapper_host)
    result = create_mapper(
        "berkeley", svc, search_depth=depth, host_first=False
    ).map()
    report = match_networks(result.network, core_network(actual))
    orientation = orient_updown(result.network)
    paths = all_pairs_updown_paths(result.network, orientation)
    tables = compile_route_tables(result.network, paths)
    n_routes = sum(len(t) for t in tables.values())
    print(
        f"[{event}] {actual.n_hosts} hosts / {actual.n_switches} switches / "
        f"{actual.n_wires} links -> map {'OK' if report else 'MISMATCH'}, "
        f"{result.stats.total_probes} probes, {n_routes} routes, "
        f"deadlock-free={routes_deadlock_free(tables)}"
    )
    assert report and routes_deadlock_free(tables)


def main() -> None:
    actual = build_subcluster("C")
    mapper_host = "C-svc"
    remap(actual, mapper_host, "initial deployment")

    # --- a cable fails and the operator pulls it -------------------------
    victim = next(
        w
        for w in actual.wires_of("C-l2-1")
        if actual.is_switch(w.other_end(w.a if w.a.node == "C-l2-1" else w.b).node)
    )
    actual.disconnect(victim)
    remap(actual, mapper_host, f"cable {victim} removed")

    # --- capacity expansion: a new leaf switch with five new hosts -------
    actual.add_switch("C-leaf-new", level="leaf")
    for uplink in ("C-l2-0", "C-l2-3"):
        free_leaf = actual.free_ports("C-leaf-new")[-1]
        free_l2 = actual.free_ports(uplink)[0]
        actual.connect("C-leaf-new", free_leaf, uplink, free_l2)
    for i in range(5):
        name = f"C-n{35 + i:02d}"
        actual.add_host(name)
        actual.connect(name, 0, "C-leaf-new", i)
    remap(actual, mapper_host, "new leaf switch + 5 hosts added")

    # --- a workstation is decommissioned ---------------------------------
    actual.remove_node("C-n00")
    remap(actual, mapper_host, "host C-n00 removed")

    print("\nevery reconfiguration was rediscovered from probes alone.")


if __name__ == "__main__":
    main()
