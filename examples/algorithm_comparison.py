#!/usr/bin/env python3
"""Three mapping algorithms, one network: lazy vs eager vs hardware-assisted.

Section 4.2: "The Myricom Algorithm aggressively looks for replicates as it
explores the network, whereas the Berkeley Algorithm discovers replicates
in a lazy fashion. ... The algorithms trade off sending messages and memory
usage." Section 6 adds the hypothetical self-identifying switch.

This example runs all three on the same topologies and prints the trade:

- Berkeley (lazy, deductive): moderate probes, larger model graph;
- Myricom (eager, comparison probes): O(N^2) messages, small memory;
- Self-id (hardware support): the probe-count lower bound.

Run:  python examples/algorithm_comparison.py
"""

from repro import (
    build_service_stack,
    build_subcluster,
    core_network,
    create_mapper,
    match_networks,
    recommended_search_depth,
)
from repro.topology.generators import build_hypercube, build_ring


def compare(name: str, net, mapper_host: str) -> None:
    depth = recommended_search_depth(net, mapper_host)
    core = core_network(net)
    rows = []

    svc = build_service_stack(net, mapper_host)
    berkeley = create_mapper("berkeley", svc, search_depth=depth).map()
    rows.append(
        (
            "Berkeley (lazy)",
            berkeley.stats.total_probes,
            berkeley.elapsed_ms,
            berkeley.peak_model_nodes,
            bool(match_networks(berkeley.network, core)),
        )
    )

    svc = build_service_stack(net, mapper_host)
    mapper = create_mapper("myricom", svc, search_depth=depth)
    myricom = mapper.map()
    rows.append(
        (
            "Myricom (eager)",
            mapper.breakdown.total,
            myricom.elapsed_ms,
            myricom.explorations,  # its whole memory footprint
            bool(match_networks(myricom.network, core)),
        )
    )

    svc = build_service_stack(net, mapper_host)
    selfid = create_mapper("selfid", svc, search_depth=depth).map()
    rows.append(
        (
            "Self-identifying",
            selfid.stats.total_probes,
            selfid.elapsed_ms,
            selfid.explorations,
            bool(match_networks(selfid.network, core)),
        )
    )

    print(f"\n=== {name}: {net.n_hosts} hosts, {net.n_switches} switches, "
          f"{net.n_wires} links ===")
    print(f"{'algorithm':<18} {'probes':>7} {'time ms':>8} "
          f"{'model size':>10} {'correct':>8}")
    for label, probes, ms, model, ok in rows:
        print(f"{label:<18} {probes:>7} {ms:>8.0f} {model:>10} "
              f"{'yes' if ok else 'NO':>8}")


def main() -> None:
    compare("NOW subcluster C", build_subcluster("C"), "C-svc")
    ring = build_ring(6, hosts_per_switch=1)
    compare("6-switch ring", ring, sorted(ring.hosts)[0])
    cube = build_hypercube(3, hosts_per_switch=1)
    compare("3-cube", cube, sorted(cube.hosts)[0])
    print(
        "\nThe eager algorithm pays its comparison probes on every "
        "frontier pop; the lazy one pays memory for its model graph; "
        "hardware identity support beats both (Section 6)."
    )


if __name__ == "__main__":
    main()
