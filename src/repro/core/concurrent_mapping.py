"""Genuinely concurrent mapping: several live mappers, one fabric.

Section 4.2's second operational mode has "all interfaces or hosts actively
map the network". Where :mod:`repro.core.election` approximates the rivals
with quiescent replays (fast, used for the Figure 7 sweeps), this module
runs every mapper *for real*: each host's
:func:`~repro.core.remapper.map_cycle`, with any registered mapper, runs in
its own lockstep-scheduled actor, its probes placed on a shared
:class:`~repro.simulator.occupancy.ChannelOccupancy`. Probes that collide
with another mapper's in-flight worm are destroyed by the forward reset and
show up as timeouts — exactly the hardware behavior.

What this lets you measure honestly:

- soundness under concurrency: collisions only *hide* answers, so every
  produced map still embeds in the truth (and is usually complete — probe
  worms are microseconds long while probes are hundreds of microseconds
  apart);
- the interference cost: elapsed time and probe counts per mapper vs. a
  solo run;
- optional address-based yielding (the election protocol): a mapper that
  receives a higher-address mapper's host-probe stops mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.mapper import MapResult
from repro.core.mapper_protocol import Mapper
from repro.core.remapper import map_cycle
from repro.simulator.collision import CircuitModel, CollisionModel
from repro.simulator.lockstep import LockstepScheduler
from repro.simulator.occupancy import ChannelOccupancy
from repro.simulator.probes import ProbeKind
from repro.simulator.stack import (
    InterferenceLayer,
    LockstepLayer,
    ProbeContext,
    ProbeLayer,
)
from repro.simulator.timing import MYRINET_TIMING, TimingModel
from repro.topology.model import Network

__all__ = ["ConcurrentOutcome", "MapperOutcome", "run_concurrent_mappers"]


@dataclass(slots=True)
class MapperOutcome:
    """One mapper's result from a concurrent run."""

    host: str
    result: MapResult | None
    finished_at_us: float
    probes_lost_to_contention: int
    yielded: bool


@dataclass(slots=True)
class ConcurrentOutcome:
    """The whole concurrent run."""

    mappers: dict[str, MapperOutcome]
    elapsed_us: float
    total_collisions: int

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / 1000.0


class _Yielded(Exception):
    """Raised at a mapper's next probe once its host lost the election."""


class _FabricYieldLayer(ProbeLayer):
    """The election rule on the shared fabric (host-probes only).

    A delivered host-probe carries the sender's interface address: a
    lower-address active mapper at the target yields (and, now passive,
    answers), while any other actively-mapping target does not reply.
    ``before`` stops a yielded host's mapper at its next probe, the way
    :class:`~repro.simulator.stack.CapLayer` stops an election rival.
    """

    def __init__(self, active: dict[str, bool], host: str) -> None:
        self._active = active
        self._host = host

    def before(self, ctx: ProbeContext) -> None:
        if not self._active[self._host]:
            raise _Yielded

    def gate(self, ctx: ProbeContext) -> None:
        if ctx.kind is not ProbeKind.HOST:
            return
        target = ctx.responder
        assert target is not None
        if target == self._host or not self._active.get(target, False):
            return
        if self._host > target:
            self._active[target] = False
        else:
            ctx.hit = False


def run_concurrent_mappers(
    net: Network,
    mappers: list[str],
    *,
    search_depth: int,
    collision: CollisionModel | None = None,
    timing: TimingModel = MYRINET_TIMING,
    start_stagger_us: float = 500.0,
    yield_rule: bool = False,
    max_explorations: int | None = 2000,
    mapper: str | Callable[[object, int], Mapper] = "berkeley",
) -> ConcurrentOutcome:
    """Run one :func:`~repro.core.remapper.map_cycle` per host concurrently
    on one fabric.

    ``yield_rule`` enables the election protocol (lower-address mappers
    stop when probed by higher ones, and active mappers do not answer
    host-probes). Without it, every mapper answers probes and maps to
    completion — the "everyone maps" mode. ``mapper`` is what
    :func:`~repro.core.remapper.map_cycle` takes: a registry name (built
    on the probe-service class its spec requires) or a ``(service, depth)
    -> Mapper`` callable.
    """
    if not mappers:
        raise ValueError("need at least one mapper host")
    collision = collision or CircuitModel()
    scheduler = LockstepScheduler()
    occupancy = ChannelOccupancy(timing)
    active = dict.fromkeys(mappers, True)
    outcomes: dict[str, MapperOutcome] = {}

    def make_actor(host: str):
        contention = InterferenceLayer(occupancy, clock=lambda: scheduler.now)
        election = (_FabricYieldLayer(active, host),) if yield_rule else ()
        layers = (contention, *election, LockstepLayer(scheduler))

        def actor(sched: LockstepScheduler) -> None:
            result: MapResult | None = None
            try:
                result, _ = map_cycle(
                    net,
                    host,
                    mapper=mapper,
                    search_depth=search_depth,
                    max_explorations=max_explorations,
                    layers=layers,
                    collision=collision,
                    timing=timing,
                )
            except _Yielded:
                pass
            active[host] = False
            outcomes[host] = MapperOutcome(
                host=host,
                result=result,
                finished_at_us=sched.now,
                probes_lost_to_contention=contention.lost,
                yielded=result is None,
            )

        return actor

    for i, host in enumerate(sorted(mappers)):
        scheduler.spawn(host, make_actor(host), start_at=i * start_stagger_us)
    elapsed = scheduler.run()
    total = sum(o.probes_lost_to_contention for o in outcomes.values())
    return ConcurrentOutcome(
        mappers=outcomes, elapsed_us=elapsed, total_collisions=total
    )
