"""Reference route compiler: one in-tree per destination *host*.

This is the compiler ``repro.routing.compile_routes`` shipped before it
learned that the leaves on one switch share one successor column: one
``RoutingPaths.in_tree`` read and one compiled in-tree per destination
host, each chain compiled up to the host itself, and a per-host loop over
the whole row of its entry switch. ``_in_tree_routes`` and
``compile_route_tables`` are the parent's, verbatim but for the
``reference_`` names; ``_ReferenceNumbering.add`` is the parent's
``_Numbering.add``, which numbered a tail's channels itself, written for
the chain-form numbering (a tail is numbered as its chain and its last
channel, without looking the tail up). The rest —
``_Numbering``, ``_suffix`` / ``_hop``, ``_compile`` — is imported, so a
counter patched onto ``compile_routes._hop`` counts this compiler's hops
too. Kept only as the oracle of ``test_compile_reference.py``, which
requires equal channels, rows, tails, heads, owned tails and numbering,
key order included.
"""

from __future__ import annotations

import random

from repro.routing.compile_routes import (
    RouteGeneration,
    Tail,
    WireIndex,
    _candidates,
    _compile,
    _Numbering,
    _Suffix,
    _suffix,
    build_wire_index,
)
from repro.routing.paths import RoutingPaths
from repro.topology.model import Network


class _ReferenceNumbering(_Numbering):
    __slots__ = ()

    def add(self, tail: Tail) -> int:
        """Number a tail no other tail can equal, without looking it up."""
        channels, turns = tail
        pair = (self.chain(channels[:-1], turns[:-1]), self.channel(channels[-1]))
        return self.pairs.setdefault(pair, len(self.pairs))


def _in_tree_routes(
    numbering: _Numbering, paths: RoutingPaths, wire_index: WireIndex, rng: random.Random
) -> None:
    """Number every route (all hosts leaves, sorted) source-major.

    All chains into one destination form an in-tree over the path states,
    so a chain is compiled once per state and every route entering at
    that state holds the one tail object (``trees``: per destination, the
    successor column and its state -> suffix memo). Once per entry switch,
    ``rows`` lists ``[dst, nodes, tail, tail's number]``, the number taken
    when a route first uses the tail, and each host on that switch reads
    its whole table off the row. No other tail can equal a shared one: it
    starts at its entry switch and ends at its destination, and each
    (entry switch, destination) has one row item.
    A route over a hop with parallel cables is compiled on its own by
    :func:`_compile`, which keeps the seeded draws in route order.
    """
    names = paths.names
    trees: list[tuple[str, list[int], dict[int, _Suffix]]] = []
    for dst in numbering.numbered:
        goal, step = paths.in_tree(dst)
        trees.append((dst, step, {goal: ((), ((), ()))}))
    rows: dict[str, list[list]] = {}
    for src, routes in numbering.numbered.items():
        switch = paths.leaf_switch[src]
        row = rows.get(switch)
        if row is None:
            entry = paths.index[switch]
            row = rows[switch] = []
            for dst, step, done in trees:
                if step[entry] >= 0:
                    nodes, tail = done.get(entry) or _suffix(entry, step, done, names, wire_index)
                    row.append([dst, nodes, tail, None])
        head = _candidates(wire_index, src, switch)[0]  # a host's one wire
        for item in row:
            dst, nodes, tail, number = item
            if dst == src:
                continue
            if tail is None:
                numbering.own(src, dst, _compile([src, switch, *nodes], wire_index, rng))
                continue
            if src not in numbering.heads:
                numbering.heads[src] = numbering.channel(head)
            if number is None:
                number = item[3] = numbering.add(tail)
            routes[dst] = number


def reference_compile_route_tables(
    net: Network,
    paths: RoutingPaths,
    *,
    seed: int = 0,
) -> RouteGeneration:
    """Route tables for every host pair with a compliant path, numbered.

    With every host a leaf (the system model: one wire, to a switch) the
    routes come off the per-destination in-trees; a fabric with any other
    host is compiled pair by pair from ``paths.node_paths``.
    """
    rng = random.Random(seed)
    wire_index = build_wire_index(net)
    hosts = sorted(net.hosts)
    numbering = _ReferenceNumbering(hosts)
    if all(h in paths.leaf_switch for h in hosts):
        _in_tree_routes(numbering, paths, wire_index, rng)
    else:
        for src, dst, node_path in paths.node_paths(hosts, hosts):
            if src != dst:
                numbering.own(src, dst, _compile(node_path, wire_index, rng))
    return numbering.generation()
