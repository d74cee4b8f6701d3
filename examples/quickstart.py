#!/usr/bin/env python3
"""Quickstart: map a system-area network purely from in-band probes.

The scenario of the paper's introduction: a host is attached to a cloud of
anonymous switches. It can only send source-routed probe messages into the
cloud and observe which come back. From those observations the Berkeley
Algorithm reconstructs the entire topology — provably, up to the per-switch
port offsets no in-band method can determine.

Run:  python examples/quickstart.py
"""

from repro import (
    build_service_stack,
    build_subcluster,
    core_network,
    create_mapper,
    match_networks,
    recommended_search_depth,
)
from repro.topology.render import to_ascii


def main() -> None:
    # The actual network: subcluster C of the Berkeley NOW (36 interfaces,
    # 13 switches, 64 links — the Figure 4 testbed). In a real deployment
    # this object is the physical machine room; the mapper never sees it.
    actual = build_subcluster("C")
    print(f"actual network (hidden from the mapper): {actual}")

    # The mapper runs on the dedicated utility machine, like the paper's
    # active mapper process, and reaches the network only through probes.
    mapper_host = "C-svc"
    probes = build_service_stack(actual, mapper_host)

    # The proven-sufficient exploration depth is Q + D + 1 (Section 3.1.4).
    depth = recommended_search_depth(actual, mapper_host)
    print(f"exploration depth Q+D+1 = {depth}")

    result = create_mapper("berkeley", probes, search_depth=depth).map()

    print(f"\nmap produced: {result.network}")
    print(
        f"probes sent: {result.stats.total_probes} "
        f"({result.stats.total_hits} answered), "
        f"simulated mapping time {result.elapsed_ms:.0f} ms "
        f"(paper: 248-265 ms)"
    )
    print(
        f"switch explorations: {result.explorations}, "
        f"replicate merges: {result.merges}, "
        f"peak model size: {result.peak_model_nodes} vertices"
    )

    # Theorem 1: the map is isomorphic to N - F (here F is empty).
    report = match_networks(result.network, core_network(actual))
    print(f"\nverified isomorphic to the hidden network: {bool(report)}")

    print("\n" + to_ascii(result.network, title="the reconstructed map"))


if __name__ == "__main__":
    main()
