"""``diff_route_tables`` as it stood before route generations were held by
number, kept verbatim as the oracle of ``test_incremental_reference.py``.

It compares two table sets route object by route object — first turns,
then the shared tails' turn strings — and builds each turn string it sends
from the route. One edit only: the name of the delta class is imported
from the product (the dataclass itself did not change).

``reference_distribute`` is ``distribute_incremental`` as it stood before
a full push counted its routes instead of diffing them, with one edit: it
diffs with the reference diff above.
"""

from __future__ import annotations

from repro.routing.compile_routes import RouteTable
from repro.routing.incremental import (
    BYTES_PER_ROUTE,
    BYTES_PER_WITHDRAWAL,
    DistributionReport,
    RouteTableDelta,
)
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.simulator.timing import HOST_OVERHEAD_US, LINK_BANDWIDTH_BYTES_PER_US, SWITCH_LATENCY_US
from repro.topology.model import Network


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


def reference_distribute(
    net: Network,
    mapper_host: str,
    new_tables: dict[str, RouteTable],
    old_tables: dict[str, RouteTable] | None,
) -> DistributionReport:
    """Push only the per-host deltas; hosts with empty deltas get nothing."""
    report = DistributionReport(mapper_host=mapper_host)
    deltas = reference_diff_route_tables(old_tables, new_tables)
    mapper_table = new_tables.get(mapper_host)
    for host in sorted(deltas):
        delta = deltas[host]
        if delta.empty or host == mapper_host:
            report.delivered.append(host)
            continue
        route = mapper_table.routes.get(host) if mapper_table else None
        if route is None:
            report.failed.append(host)
            continue
        outcome = evaluate_route(net, mapper_host, route.turns)
        if outcome.status is not PathStatus.DELIVERED or outcome.delivered_to != host:
            report.failed.append(host)
            continue
        payload = (
            BYTES_PER_ROUTE * (len(delta.added) + len(delta.changed))
            + BYTES_PER_WITHDRAWAL * len(delta.withdrawn)
        )
        report.bytes_sent += payload
        report.elapsed_us += (
            HOST_OVERHEAD_US
            + outcome.hops * SWITCH_LATENCY_US
            + payload / LINK_BANDWIDTH_BYTES_PER_US
        )
        report.delivered.append(host)
    return report
