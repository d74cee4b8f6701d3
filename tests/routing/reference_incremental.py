"""``diff_route_tables`` as it stood before route generations were held by
number, kept verbatim as the oracle of ``test_incremental_reference.py``.

It compares two table sets route object by route object — first turns,
then the shared tails' turn strings — and builds each turn string it sends
from the route. One edit only: the name of the delta class is imported
from the product (the dataclass itself did not change).
"""

from __future__ import annotations

from repro.routing.compile_routes import RouteTable
from repro.routing.incremental import RouteTableDelta


def reference_diff_route_tables(
    old: dict[str, RouteTable] | None, new: dict[str, RouteTable]
) -> dict[str, RouteTableDelta]:
    """Per-host deltas from ``old`` to ``new`` (None old = everything new).

    Hosts present only in ``old`` are omitted (nothing to send to a host
    that left); hosts present only in ``new`` get their full table as
    additions.
    """
    deltas: dict[str, RouteTableDelta] = {}
    old = old or {}
    for host, table in new.items():
        delta = RouteTableDelta(host)
        old_table = old.get(host)
        old_routes = old_table.routes if old_table else {}
        for dst, route in table.routes.items():
            prev = old_routes.get(dst)
            # Turn strings are compared where a route holds them (first
            # turn, then the shared tail's) and built only to be sent.
            if prev is None:
                delta.added[dst] = route.turns
            elif prev.first_turn != route.first_turn or prev.tail[1] != route.tail[1]:
                delta.changed[dst] = route.turns
        for dst in old_routes:
            if dst not in table.routes:
                delta.withdrawn.append(dst)
        deltas[host] = delta
    return deltas
