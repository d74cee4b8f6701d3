"""Route distribution: pushing tables to every network interface.

"Once the master or elected leader generates a network map, it derives
mutually deadlock-free routes from it and distributes them throughout the
system." The distributor sends each host its complete route table over the
network, using the freshly computed route from the mapper to that host —
which is itself an end-to-end validation that the new routes deliver.

The simulation charges the timing model per table message (table size
scales with the host count) and verifies each delivery by evaluating the
mapper->host route on the actual network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.routing.compile_routes import RouteTable
from repro.simulator.timing import MYRINET_TIMING, TimingModel
from repro.topology.model import Network

__all__ = ["DistributionReport", "distribute_routes"]


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


def distribute_routes(
    net: Network,
    mapper_host: str,
    tables: dict[str, RouteTable],
    *,
    timing: TimingModel = MYRINET_TIMING,
    bytes_per_route: int = 16,
) -> DistributionReport:
    """Send every host its table along the mapper's route to it.

    A full push is
    :func:`~repro.routing.incremental.distribute_incremental` with no
    previous generation: every route is an addition. A host whose table
    cannot be delivered (no route, or the route fails to evaluate on the
    actual network — impossible when the map is correct) is recorded in
    ``failed``.
    """
    # Imported here: incremental.py takes DistributionReport from this module.
    from repro.routing.incremental import distribute_incremental

    return distribute_incremental(
        net,
        mapper_host,
        tables,
        None,
        timing=timing,
        bytes_per_route=bytes_per_route,
    )
