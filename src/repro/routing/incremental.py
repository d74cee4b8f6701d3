"""Route distribution: push every host the part of its table that changed.

"Once the master or elected leader generates a network map, it derives
mutually deadlock-free routes from it and distributes them throughout the
system." The distributor sends each host its table over the network, using
the freshly computed route from the mapper to that host — which is itself
an end-to-end validation that the new routes deliver.

The remapping daemon of the abstract runs *periodically*; most cycles find
small changes (one host came or went, one cable moved). Re-distributing
every host's complete table on every cycle wastes exactly the resource the
system exists to manage. This module diffs two route-table generations and
distributes only the delta:

- per host: routes added, routes changed (different turn string), routes
  withdrawn;
- hosts whose tables are untouched receive nothing;
- new hosts receive their full table; departed hosts are dropped.

A full push is the same loop with no previous generation (``old_tables``
None: every route is an addition), so experiments compare full vs
incremental distribution cost on one byte and time formula. The timing
model is charged per table message and each delivery is verified by
evaluating the mapper->host route on the actual network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.routing.compile_routes import RouteTable, as_generation
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.simulator.turns import Turns
from repro.simulator.timing import HOST_OVERHEAD_US, LINK_BANDWIDTH_BYTES_PER_US, SWITCH_LATENCY_US
from repro.topology.model import Network

#: Bytes a table message spends per added or changed route, and per
#: withdrawn one; each message is charged on the Myrinet timing model.
BYTES_PER_ROUTE = 16
BYTES_PER_WITHDRAWAL = 4

__all__ = [
    "UNREACHABLE_ENDPOINT",
    "DistributionReport",
    "RouteTableDelta",
    "diff_route_tables",
    "distribute_incremental",
    "route_deliveries",
]

#: The failure of a route whose source or destination host the fabric lacks.
UNREACHABLE_ENDPOINT = "unreachable endpoint"


@dataclass(slots=True)
class DistributionReport:
    """Outcome of pushing route tables to all interfaces."""

    mapper_host: str
    delivered: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    bytes_sent: int = 0
    elapsed_us: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / 1000.0


@dataclass(slots=True)
class RouteTableDelta:
    """Changes to one host's route table between two generations."""

    host: str
    added: dict[str, tuple] = field(default_factory=dict)
    changed: dict[str, tuple] = field(default_factory=dict)
    withdrawn: list[str] = field(default_factory=list)

    @property
    def n_updates(self) -> int:
        return len(self.added) + len(self.changed) + len(self.withdrawn)

    @property
    def empty(self) -> bool:
        return self.n_updates == 0


def diff_route_tables(
    old: Mapping[str, RouteTable] | None, new: Mapping[str, RouteTable]
) -> dict[str, RouteTableDelta]:
    """Per-host deltas from ``old`` to ``new`` (None old = everything new).

    Hosts present only in ``old`` are omitted (nothing to send to a host
    that left); hosts present only in ``new`` get their full table as
    additions.
    """
    deltas: dict[str, RouteTableDelta] = {}
    generation, previous = as_generation(new), as_generation(old or {})
    keys, old_keys = generation.turn_keys, previous.turn_keys
    moved: frozenset[int] | set[int] | None = None
    # Turn strings are compared off the generations' numbers — for a host
    # whose channel still enters by the same port, as the tails' turn
    # keys — and built only to be sent. A host whose row of tail numbers
    # is its old row, entered by the same port, differs only where a
    # tail's key moved (docs/ALGORITHM.md §6).
    for host, routes in generation.numbered.items():
        delta = deltas[host] = RouteTableDelta(host)
        old_routes = previous.numbered.get(host, {})
        in_port, old_in = generation.in_port(host), previous.in_port(host)
        if in_port == old_in and routes == old_routes:
            if moved is None:
                moved = generation.moved_tails(previous)
            if not moved.isdisjoint(routes.values()):
                for dst, tail in routes.items():
                    if tail in moved:
                        delta.changed[dst] = _sent(keys[tail], in_port)
            continue
        for dst, tail in routes.items():
            prev, key = old_routes.get(dst), keys[tail]
            if prev is not None and (
                key == old_keys[prev]
                if in_port == old_in
                else _sent(key, in_port) == _sent(old_keys[prev], old_in)
            ):
                continue
            if prev is None:
                delta.added[dst] = _sent(key, in_port)
            else:
                delta.changed[dst] = _sent(key, in_port)
        for dst in old_routes:
            if dst not in routes:
                delta.withdrawn.append(dst)
    return deltas


def _sent(key: tuple[int | None, Turns], in_port: int) -> Turns:
    """The turn string of a route on a tail with turn key ``key`` from a
    host whose channel enters by ``in_port``."""
    out, turns = key
    return () if out is None else (out - in_port, *turns)


def distribute_incremental(
    net: Network,
    mapper_host: str,
    new_tables: Mapping[str, RouteTable],
    old_tables: Mapping[str, RouteTable] | None,
) -> DistributionReport:
    """Push only the per-host deltas; hosts with empty deltas get nothing.

    Delivery runs over the mapper's *new* routes (a changed topology may
    have invalidated the old ones). A host whose delta cannot be delivered
    (no route, or the route fails to evaluate on the actual network —
    impossible when the map is correct) is recorded in ``failed``.
    """
    report = DistributionReport(mapper_host=mapper_host)
    # A full push sends every route as an addition: only the counts are
    # read, so no turn string is built.
    if old_tables is None:
        updates = {host: (len(table.routes), 0) for host, table in new_tables.items()}
    else:
        updates = {
            host: (len(delta.added) + len(delta.changed), len(delta.withdrawn))
            for host, delta in diff_route_tables(old_tables, new_tables).items()
        }
    mapper_table = new_tables.get(mapper_host)
    for host in sorted(updates):
        sent, withdrawn = updates[host]
        if not (sent or withdrawn) or host == mapper_host:
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
        payload = BYTES_PER_ROUTE * sent + BYTES_PER_WITHDRAWAL * withdrawn
        report.bytes_sent += payload
        report.elapsed_us += (
            HOST_OVERHEAD_US
            + outcome.hops * SWITCH_LATENCY_US
            + payload / LINK_BANDWIDTH_BYTES_PER_US
        )
        report.delivered.append(host)
    return report


def route_deliveries(
    tables: Mapping[str, RouteTable], net: Network
) -> Iterator[tuple[str, str, str | None]]:
    """Judge every route of ``tables`` on ``net``, the one delivery check.

    Yields ``(src, dst, failure)`` per route in (source, destination)
    order. ``failure`` is ``None`` when the route delivers to ``dst``,
    :data:`UNREACHABLE_ENDPOINT` when ``net`` lacks either host, and
    otherwise the :class:`~repro.simulator.path_eval.PathStatus` value the
    walk ended with (``"delivered"`` for one that reached another host).
    """
    for src in sorted(tables):
        routes = tables[src].routes
        for dst in sorted(routes):
            if src not in net or dst not in net:
                yield src, dst, UNREACHABLE_ENDPOINT
                continue
            out = evaluate_route(net, src, routes[dst].turns)
            if out.status is PathStatus.DELIVERED and out.delivered_to == dst:
                yield src, dst, None
            else:
                yield src, dst, out.status.value
