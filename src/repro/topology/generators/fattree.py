"""Parametric (possibly incomplete) fat trees in the Berkeley NOW style.

The NOW subclusters are "fat-tree-like" (Section 5.1): leaf switches holding
hosts, one or more internal switch levels, roots on top, with each switch
uplinking to several switches of the next level. :func:`build_fat_tree`
generalizes the style so experiments can scale the topology family.

:func:`build_three_tier_fat_tree` builds the regular three-tier (folded
Clos) variant used by the datacenter scale tiers: ``k`` pods of ``k/2``
edge and ``k/2`` aggregation switches over a ``(k/2)**2``-switch core, all
of radix ``k`` — the construction automated fat-tree design methods (e.g.
Solnushkin's) produce when every layer uses the same switch model.
"""

from __future__ import annotations

from repro.topology.builder import NetworkBuilder
from repro.topology.model import Network, TopologyError

__all__ = ["build_fat_tree", "build_three_tier_fat_tree", "three_tier_counts"]


def build_fat_tree(*, n_leaves: int, hosts_per_leaf: int) -> Network:
    """Build a two-level fat tree of radix-8 switches.

    Every leaf uplinks once to each of the two roots, the first uplink
    going to root ``i % 2`` for leaf ``i``, so the tree is "incomplete" in
    the same way the NOW subclusters are.

    Raises :class:`TopologyError` when a leaf cannot hold its hosts and
    two uplinks.
    """
    if n_leaves < 1 or hosts_per_leaf < 1:
        raise TopologyError("fat tree needs leaves and hosts")
    if hosts_per_leaf + 2 > 8:
        raise TopologyError(f"leaf needs {hosts_per_leaf} host ports + 2 uplinks > radix 8")

    b = NetworkBuilder()
    leaves = [f"ft-leaf-{i}" for i in range(n_leaves)]
    roots = ["ft-l1-0", "ft-l1-1"]
    for s in leaves + roots:
        b.switch(s)

    host_no = 0
    for leaf in leaves:
        for _ in range(hosts_per_leaf):
            b.host(f"ft-n{host_no:03d}")
            b.attach(f"ft-n{host_no:03d}", leaf)
            host_no += 1

    for i, sw in enumerate(leaves):
        for j in range(2):
            b.link(sw, roots[(i + j) % 2])

    return b.build(require_connected=True)


def three_tier_counts(k: int, hosts_per_edge: int | None = None) -> tuple[int, int]:
    """(switches, hosts) of ``build_three_tier_fat_tree(k, hosts_per_edge)``."""
    if hosts_per_edge is None:
        hosts_per_edge = k // 2
    return k * k + (k // 2) ** 2, hosts_per_edge * (k // 2) * k


def build_three_tier_fat_tree(
    k: int,
    *,
    hosts_per_edge: int | None = None,
) -> Network:
    """Build a regular three-tier fat tree (folded Clos) of ``k``-port switches.

    ``k`` pods each hold ``k/2`` edge and ``k/2`` aggregation switches; the
    core has ``(k/2)**2`` switches. Edge switch ports split evenly between
    hosts (``hosts_per_edge``, default ``k/2``) and the pod's aggregation
    layer; aggregation switch ``j`` of every pod uplinks to core switches
    ``j*(k/2) .. (j+1)*(k/2)-1``, so each core switch sees one wire per pod
    and every switch radix is exactly ``k``. Totals: ``5k^2/4`` switches
    and ``hosts_per_edge * k^2/2`` hosts — ``k=8`` gives the 80-switch
    10^2-port tier, ``k=16`` the 320-switch 10^3-port tier, and ``k=30``
    with ``hosts_per_edge=2`` the 1125-switch acceptance tier.
    """
    if k < 4 or k % 2:
        raise TopologyError("three-tier fat tree needs an even k >= 4")
    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    if not 1 <= hosts_per_edge <= half:
        raise TopologyError(
            f"hosts_per_edge must be in [1, {half}] so edge radix {k} "
            f"holds {half} uplinks"
        )

    b = NetworkBuilder(default_radix=k)
    cores = [f"clos-core-{c}" for c in range(half * half)]
    for core in cores:
        b.switch(core)

    host_no = 0
    for p in range(k):
        aggs = [f"clos-p{p}-agg-{j}" for j in range(half)]
        edges = [f"clos-p{p}-edge-{j}" for j in range(half)]
        for s in aggs + edges:
            b.switch(s)
        for j, agg in enumerate(aggs):
            for c in range(j * half, (j + 1) * half):
                b.link(agg, cores[c])
            for edge in edges:
                b.link(agg, edge)
        for edge in edges:
            for _ in range(hosts_per_edge):
                name = f"clos-n{host_no:04d}"
                b.host(name)
                b.attach(name, edge)
                host_no += 1

    return b.build(require_connected=True)
