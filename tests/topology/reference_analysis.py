"""Reference derivations of ``D``, ``F`` and ``Q(v)`` on networkx.

These are the formulations ``repro.topology.analysis`` shipped before it
moved to one shared residual arc array: a fresh ``nx.DiGraph`` and one
``nx.network_simplex`` per ``Q(v)``, switch-bridge removal for ``F``,
``nx.diameter`` for ``D``. They are slow (about 5 ms per node on the full
NOW) and kept only as the oracle of ``test_analysis_reference.py``.

``separated_set_flow`` is the paper's own derivation of Lemma 1 — ``F`` by
the max-flow/min-cut criterion — kept as a second, independent computation
for ``test_analysis.py``.

``reference_effective_network`` is ``effective_network`` as it found the
mapper's component before it used the analysis module's own BFS: a
networkx ``Graph`` of a copy and ``node_connected_component``.
"""

from __future__ import annotations

import networkx as nx

from repro.topology.model import Network

_SINK = "__sink__"
_SINK_H0 = "__sink_h0__"
_SINK_ANY = "__sink_any__"


def simple_graph(net: Network) -> nx.Graph:
    """Underlying simple graph with edge multiplicities (loopbacks dropped)."""
    g = nx.Graph()
    g.add_nodes_from(net.nodes)
    for wire in net.wires:
        u, v = wire.nodes
        if u == v:
            continue
        if g.has_edge(u, v):
            g[u][v]["multiplicity"] += 1
        else:
            g.add_edge(u, v, multiplicity=1)
    return g


def reference_diameter(net: Network) -> int:
    return nx.diameter(simple_graph(net))


def reference_separated_set(net: Network) -> set[str]:
    """``F`` by removing each switch-bridge in turn (Lemma 1)."""
    g = simple_graph(net)
    switch_bridges = [
        (u, v)
        for u, v in nx.bridges(g)
        if g[u][v]["multiplicity"] == 1
        and net.is_switch(u)
        and net.is_switch(v)
    ]
    host_set = set(net.hosts)
    f: set[str] = set()
    for u, v in switch_bridges:
        g.remove_edge(u, v)
        for component in nx.connected_components(g):
            if not component & host_set:
                f |= component
        g.add_edge(u, v, multiplicity=1)
    return f


def separated_set_flow(net: Network) -> set[str]:
    """``F`` via the Max-Flow/Min-Cut criterion used in the Lemma 1 proof.

    A switch ``v`` is outside ``F`` iff two units of flow can be pushed from
    ``v`` to the host set with unit capacity on every wire. Hosts are never
    in ``F``.
    """
    if net.n_hosts == 0:
        return set(net.switches)
    dg = nx.DiGraph()
    for wire in net.wires:
        u, v = wire.nodes
        if u == v:
            continue
        for a, b in ((u, v), (v, u)):
            if dg.has_edge(a, b):
                dg[a][b]["capacity"] += 1
            else:
                dg.add_edge(a, b, capacity=1)
    for host in net.hosts:
        dg.add_edge(host, _SINK, capacity=1)
    f: set[str] = set()
    for switch in net.switches:
        if switch not in dg:
            f.add(switch)  # fully disconnected switch
            continue
        value = nx.maximum_flow_value(dg, switch, _SINK)
        if value < 2:
            f.add(switch)
    return f


def reference_q_value(net: Network, h0: str, v: str) -> int | None:
    """``Q(v)`` as a network-simplex min-cost flow of two units from ``v``.

    One unit must terminate at ``h0`` and one at any host (possibly ``h0``
    again via its attachment wire, the Definition 2 anomaly, in which case
    the arc into ``h0`` carries 2).
    """
    if v == h0:
        return 0
    dg = nx.DiGraph()
    attach = net.host_attachment(h0)
    for wire in net.wires:
        a, b = wire.nodes
        if a == b:
            continue
        for u, w in ((a, b), (b, a)):
            cap = 1
            if attach is not None and w == h0 and u == attach.node:
                cap = 2
            if dg.has_edge(u, w):
                dg[u][w]["capacity"] += cap
            else:
                dg.add_edge(u, w, capacity=cap, weight=1)
    if v not in dg:
        return None
    dg.add_edge(h0, _SINK_H0, capacity=1, weight=0)
    for host in net.hosts:
        dg.add_edge(host, _SINK_ANY, capacity=1, weight=0)
    dg.add_edge(_SINK_H0, _SINK, capacity=1, weight=0)
    dg.add_edge(_SINK_ANY, _SINK, capacity=1, weight=0)
    dg.nodes[v]["demand"] = -2
    dg.nodes[_SINK]["demand"] = 2
    try:
        cost, _ = nx.network_simplex(dg)
    except nx.NetworkXUnfeasible:
        return None
    return int(cost)


def reference_effective_network(net: Network, mapper_host: str) -> Network:
    """Ground truth restricted to the mapper's component."""
    eff = net.copy()
    g = nx.Graph(eff.to_networkx())
    if mapper_host not in g:
        return eff.induced_subnetwork([mapper_host])
    return eff.induced_subnetwork(nx.node_connected_component(g, mapper_host))
