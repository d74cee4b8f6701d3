"""One-value questions of ``repro.topology`` that only tests ask.

The product reads ``D``, the switch-bridges and every ``Q(v)`` off one
:func:`~repro.topology.analysis.core_decomposition` pass (or one
``recommended_search_depth``). These ask for one of them alone, on the
same shared fabric and flow, for the tests that pin each definition.
"""

from __future__ import annotations

from repro.topology.analysis import _Fabric, _TrailFlow, bridges, core_decomposition
from repro.topology.model import Network, Wire


def used_ports(net: Network, node: str) -> list[int]:
    """The wired ports of ``node``, ascending."""
    return [p for p in range(net.radix(node)) if net.neighbor_at(node, p) is not None]


def degree(net: Network, node: str) -> int:
    """Number of wired ports on ``node`` (a loopback cable counts twice)."""
    return len(used_ports(net, node))


def diameter(net: Network) -> int:
    """The diameter ``D`` of the network (hop count over all node pairs).

    Raises :class:`TopologyError` when the network is not connected.
    """
    fab = _Fabric.of(net)
    return fab.diameter(fab.distances)


def switch_bridges(net: Network) -> list[Wire]:
    """Bridges with switches at both ends (the paper's *switch-bridge*)."""
    return [
        w
        for w in bridges(net)
        if net.is_switch(w.a.node) and net.is_switch(w.b.node)
    ]


def q_value(net: Network, h0: str, v: str) -> int | None:
    """``Q(v)`` of Definition 2, or ``None`` when undefined (``v`` in ``F``).

    Min-cost flow: supply 2 at ``v``; one unit must terminate at ``h0`` and
    one at any host (possibly ``h0`` again via its attachment wire, the
    Definition 2 anomaly, in which case the arc into ``h0`` carries 2).
    Nodes outside ``h0``'s connected component have no ``Q``.
    """
    fab, root = _Fabric.around(net, h0)
    if v not in fab.names:
        return None
    return _TrailFlow(fab, root).q(fab.names.index(v))[0]


def q_max(net: Network, h0: str) -> int:
    """``Q`` of Definition 3."""
    return core_decomposition(net, h0).q
