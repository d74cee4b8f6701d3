"""Genuinely concurrent mapping: several live mappers, one fabric.

The oracle for the election replay (:mod:`repro.core.election`), which no
product path runs. Section 4.2's second operational mode has "all
interfaces or hosts actively map the network". Where the election
approximates the rivals with quiescent replays (fast, used for the
Figure 7 sweeps), this module runs every mapper *for real*: each host's
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

The execution substrate is :class:`LockstepScheduler`, deterministic
simulated-time execution of concurrent actors. The mapping algorithms are
written synchronously (probe, look at the answer, decide) — the honest way
to run *several* of them against one fabric is to give each its own thread
and interleave them under a simulated clock:

- exactly one actor thread runs at any instant (a baton passes between the
  scheduler and the running actor), so there are no data races by
  construction;
- an actor calling :meth:`LockstepScheduler.wait` is suspended and resumed
  when the simulated clock reaches its wake time;
- ties break on (wake time, actor spawn order, sequence), making runs
  byte-for-byte reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.mapper import MapResult
from repro.core.mapper_protocol import Mapper
from repro.core.remapper import map_cycle
from repro.simulator.collision import CircuitModel, CollisionModel
from repro.simulator.occupancy import ChannelOccupancy
from repro.simulator.probes import ProbeKind
from repro.simulator.stack import InterferenceLayer, ProbeContext, ProbeLayer
from repro.topology.model import Network

#: An actor is a callable run in its own thread with the scheduler as its
#: only handle on (simulated) time.
ActorBody = Callable[["LockstepScheduler"], None]


class ActorError(RuntimeError):
    """An actor thread raised; re-raised in the scheduler's thread."""


@dataclass
class _Actor:
    name: str
    index: int
    thread: threading.Thread | None = None
    resume: threading.Event = field(default_factory=threading.Event)
    finished: bool = False
    error: BaseException | None = None


class LockstepScheduler:
    """Run actor callables under one deterministic simulated clock."""

    def __init__(self) -> None:
        self._actors: list[_Actor] = []
        self._heap: list[tuple[float, int, int, _Actor]] = []
        self._seq = itertools.count()
        self._baton = threading.Event()  # scheduler's turn
        self._now = 0.0
        self._running: _Actor | None = None
        self._started = False

    # -- construction ----------------------------------------------------
    def spawn(self, name: str, fn: ActorBody, *, start_at: float = 0.0) -> None:
        """Register an actor; ``fn(scheduler)`` runs in its own thread."""
        if self._started:
            raise RuntimeError("cannot spawn after run() started")
        actor = _Actor(name=name, index=len(self._actors))

        def body() -> None:
            actor.resume.wait()
            actor.resume.clear()
            try:
                fn(self)
            except BaseException as exc:  # noqa: BLE001 - reported upward
                actor.error = exc
            finally:
                actor.finished = True
                self._baton.set()

        actor.thread = threading.Thread(
            target=body, name=f"lockstep-{name}", daemon=True
        )
        self._actors.append(actor)
        heapq.heappush(
            self._heap, (start_at, actor.index, next(self._seq), actor)
        )

    # -- actor API ---------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def wait(self, duration: float) -> None:
        """Suspend the calling actor for ``duration`` simulated time."""
        if duration < 0:
            raise ValueError("cannot wait a negative duration")
        actor = self._running
        assert actor is not None, "wait() called outside an actor"
        heapq.heappush(
            self._heap,
            (self._now + duration, actor.index, next(self._seq), actor),
        )
        self._baton.set()  # hand the baton back to the scheduler
        actor.resume.wait()
        actor.resume.clear()

    # -- driving -----------------------------------------------------------
    def run(self) -> float:
        """Run all actors to completion; returns the final simulated time."""
        self._started = True
        for actor in self._actors:
            assert actor.thread is not None
            actor.thread.start()
        while self._heap:
            wake, _idx, _seq, actor = heapq.heappop(self._heap)
            if actor.finished:
                continue
            self._now = max(self._now, wake)
            self._running = actor
            self._baton.clear()
            actor.resume.set()
            self._baton.wait()
            self._running = None
            if actor.error is not None:
                raise ActorError(
                    f"actor {actor.name!r} failed"
                ) from actor.error
        for actor in self._actors:
            assert actor.thread is not None
            actor.thread.join(timeout=5.0)
        return self._now


class LockstepLayer(ProbeLayer):
    """Yield the probe's cost to a :class:`LockstepScheduler` actor.

    Concurrent mappers interleave by waiting out each probe's simulated
    cost on the shared clock; this layer does the wait right after the
    record is accounted, exactly where the old concurrent wrapper did.
    """

    def __init__(self, scheduler) -> None:
        self._sched = scheduler

    def after(self, ctx: ProbeContext) -> None:
        record = ctx.record
        assert record is not None
        self._sched.wait(record.cost_us)

    def describe(self) -> str:
        return "LockstepLayer()"


class _SharedClockInterference(InterferenceLayer):
    """Occupancy placed at the scheduler's shared clock, not at the
    service's own accumulated ``stats.elapsed_us``."""

    def __init__(self, occupancy, scheduler: LockstepScheduler) -> None:
        super().__init__(occupancy)
        self._sched = scheduler

    def now_us(self, ctx: ProbeContext) -> float:
        return self._sched.now


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
    occupancy = ChannelOccupancy()
    active = dict.fromkeys(mappers, True)
    outcomes: dict[str, MapperOutcome] = {}

    def make_actor(host: str):
        contention = _SharedClockInterference(occupancy, scheduler)
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
