"""Mapping under application cross-traffic (Section 6, first open problem).

"Insisting upon an idle network, especially in a general-purpose and
multi-programmed system, is at best a stop-gap measure." Section 7 adds:
"we have some evidence that the algorithm can oftentimes correctly map the
network even in the face of heavy application cross-traffic." This module
quantifies that claim:

- :func:`build_crosstraffic_service` stacks an
  :class:`~repro.simulator.stack.InterferenceLayer` over the quiescent
  core: the fabric is pre-filled with Poisson host-pair worms
  (:class:`~repro.simulator.traffic.CrossTraffic`) and a probe whose worm
  collides with traffic is destroyed by the forward reset — the mapper
  sees a timeout. Deductions stay *sound* (traffic produces missing
  answers, never wrong ones), so the failure mode is an incomplete map,
  not a wrong one — matching why the paper's algorithm "oftentimes" still
  maps correctly. Mapper worms do not reserve channels against each other
  (the mapper is sequential), only against the traffic.
- a :class:`~repro.simulator.stack.RetryLayer` adds bounded retry (each
  attempt is counted and charged), the obvious mitigation.
- :func:`crosstraffic_study` sweeps traffic intensity and reports map
  completeness vs. cost, with and without retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mapper import MappingError
from repro.core.mapper_protocol import create_mapper
from repro.simulator.faults import NO_FAULTS
from repro.simulator.occupancy import ChannelOccupancy
from repro.simulator.stack import (
    InterferenceLayer,
    RetryLayer,
    build_service_stack,
)
from repro.simulator.traffic import CrossTraffic
from repro.topology.analysis import core_network, effective_network
from repro.topology.isomorphism import match_networks
from repro.topology.model import Network

#: Retry budgets a study sweeps at every rate.
RETRIES = (0, 2)

__all__ = [
    "TrafficPoint",
    "build_crosstraffic_service",
    "crosstraffic_study",
]


def build_crosstraffic_service(
    net: Network,
    mapper: str,
    *,
    rate_msgs_per_ms: float,
    retries: int = 0,
    **kwargs,
):
    """Probe service with background worms contending for channels.

    Composes the quiescent core with an interference gate fed by a
    Poisson cross-traffic generator (and, with ``retries`` > 0, a retry
    layer). Blocked placements are not recorded against the occupancy —
    a destroyed probe worm leaves nothing behind in the fabric.
    """
    occupancy = ChannelOccupancy()
    traffic = CrossTraffic(
        net,
        occupancy,
        frozenset({mapper}),
        rate_msgs_per_ms=rate_msgs_per_ms,
    )
    layers = [InterferenceLayer(occupancy, traffic=traffic)]
    if retries:
        layers.append(RetryLayer(retries))
    return build_service_stack(
        net,
        mapper,
        layers=layers,
        **kwargs,
    )


@dataclass(slots=True)
class TrafficPoint:
    """One sweep point of the cross-traffic study."""

    rate_msgs_per_ms: float
    retries: int
    correct: bool
    hosts_found: int
    hosts_total: int
    switches_found: int
    switches_total: int
    wires_found: int
    wires_total: int
    probes: int
    probes_lost: int
    elapsed_ms: float
    error: str

    @property
    def completeness(self) -> float:
        denom = self.hosts_total + self.switches_total + self.wires_total
        found = self.hosts_found + self.switches_found + self.wires_found
        return found / denom if denom else 1.0


def crosstraffic_study(
    net: Network,
    mapper_host: str,
    *,
    search_depth: int,
    rates: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0),
) -> list[TrafficPoint]:
    """Sweep traffic intensity x :data:`RETRIES`; measure map quality/cost."""
    core = core_network(effective_network(net, NO_FAULTS, mapper_host))
    points: list[TrafficPoint] = []
    for rate in rates:
        for n_retries in RETRIES:
            svc = build_crosstraffic_service(
                net, mapper_host, rate_msgs_per_ms=rate, retries=n_retries
            )
            interference = svc.find_layer(InterferenceLayer)
            error = ""
            try:
                result = create_mapper("berkeley", svc, search_depth=search_depth).map()
                produced = result.network
                correct = bool(match_networks(produced, core))
            except MappingError as exc:  # pragma: no cover - defensive
                produced = None
                correct = False
                error = str(exc)
            points.append(
                TrafficPoint(
                    rate_msgs_per_ms=rate,
                    retries=n_retries,
                    correct=correct,
                    hosts_found=produced.n_hosts if produced else 0,
                    hosts_total=core.n_hosts,
                    switches_found=produced.n_switches if produced else 0,
                    switches_total=core.n_switches,
                    wires_found=produced.n_wires if produced else 0,
                    wires_total=core.n_wires,
                    probes=svc.stats.total_probes,
                    probes_lost=interference.lost,
                    elapsed_ms=svc.stats.elapsed_ms,
                    error=error,
                )
            )
    return points
