"""The composable probe-service middleware stack.

The paper's clean boundary — mappers see only the response function ``R``
plus simulated time (Section 2.3) — had been re-implemented five times as
the repo grew: election silence, shared-fabric contention, chaos event
injection, cross-traffic interference and probe budgets each wrapped the
quiescent service with a bespoke class that duplicated probe accounting.
This module replaces the zoo with one engine
(:class:`~repro.simulator.quiescent.QuiescentProbeService`) and small
*layers* that hook into its single probe transaction:

``before``
    runs before path evaluation, once per attempt — counting triggers,
    clock advancement, budget enforcement.
``gate``
    runs only when the probe evaluated to a hit; a layer may veto by
    setting ``ctx.hit = False`` (occupancy conflicts, silenced rivals).
    Gates after the vetoing one are skipped.
``after``
    runs once the :class:`~repro.simulator.probes.ProbeRecord` has been
    accounted — trace publication.
``retry_after_miss``
    consulted only on a miss; returning True re-runs the whole
    transaction (a retry is a full fresh attempt: ``before`` hooks fire
    again and a new record is accounted, exactly like the mapper sending
    the probe again).

Hooks run in layer order for every phase, so ordering is part of the
contract: counting/budget layers first, interference gates next,
observation layers (trace bus) last. ``docs/ARCHITECTURE.md``
spells out the rules.

Build stacks through :func:`build_service_stack`; ad-hoc wrapper classes
outside this module are rejected by sanlint rule SAN011.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.simulator.probes import ProbeKind, ProbeRecord
from repro.simulator.turns import Turns

#: How far ahead of the probe's start (us) an interference layer advances
#: its cross-traffic generator before placing the probe.
FILL_AHEAD_US = 10_000.0

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.quiescent import QuiescentProbeService

__all__ = [
    "CapLayer",
    "CountingLayer",
    "InterferenceLayer",
    "ProbeBudgetExceeded",
    "ProbeContext",
    "ProbeLayer",
    "RetryLayer",
    "TraceBusLayer",
    "build_service_stack",
    "describe_stack",
]


@dataclass(slots=True)
class ProbeContext:
    """One probe transaction, threaded through every layer hook.

    ``info`` duck-types between :class:`~repro.simulator.path_eval.ProbeInfo`
    and :class:`~repro.simulator.path_eval.PathResult` — layers may rely on
    ``.hops`` and ``.traversals`` only. ``responder``/``response`` are the
    service-level return value and the name recorded in the trace; the
    evaluation callable sets both, gates may clear ``hit`` (the engine then
    records a timeout-cost miss).
    """

    kind: ProbeKind
    turns: Turns
    service: "QuiescentProbeService"
    attempt: int = 0
    info: object | None = None
    hit: bool = False
    responder: str | None = None
    response: str | None = None
    record: ProbeRecord | None = None
    #: Free slot for probe kinds whose result is richer than hit/responder
    #: (e.g. the coupon phase's ``(host, prefix)`` pair).
    payload: object = None


class ProbeLayer:
    """Base middleware layer: every hook is a no-op.

    Layers are deliberately tiny objects — one concern each — composed via
    :func:`build_service_stack`. Subclasses override only the hooks they
    need; the engine skips the hook loops entirely for layer-less stacks,
    so the quiescent fast path pays nothing.
    """

    def on_attach(self, service: "QuiescentProbeService") -> None:
        """Called once when the engine adopts the layer."""

    def before(self, ctx: ProbeContext) -> None:
        """Runs before path evaluation, once per attempt."""

    def gate(self, ctx: ProbeContext) -> None:
        """Runs on hits only; set ``ctx.hit = False`` to veto."""

    def after(self, ctx: ProbeContext) -> None:
        """Runs after the record was accounted (``ctx.record`` is set)."""

    def retry_after_miss(self, ctx: ProbeContext) -> bool:
        """Return True to re-run the transaction after a miss."""
        return False

    def describe(self) -> str:
        """One-line human description for ``san-map map --stack``."""
        return type(self).__name__


class CountingLayer(ProbeLayer):
    """Fire payloads once the probe count crosses their thresholds.

    The primitive behind both chaos mid-map events ("after N probes,
    break a wire") and election probe budgets. ``triggers`` is an
    iterable of ``(threshold, payload)`` pairs; before the probe whose
    ordinal equals ``threshold`` (0-based: the count of probes already
    sent), :meth:`fire` is invoked with the payload. The sort is stable,
    so equal thresholds fire in the order given.
    """

    def __init__(
        self, triggers: Iterable[tuple[int, object]] = ()
    ) -> None:
        self.sent = 0
        self._pending = sorted(triggers, key=lambda t: t[0])
        self._next = 0

    @property
    def pending(self) -> int:
        """Triggers not yet fired."""
        return len(self._pending) - self._next

    def fire(self, payload: object) -> None:
        """Default action: call the payload. Subclasses override."""
        if callable(payload):
            payload()

    def before(self, ctx: ProbeContext) -> None:
        while (
            self._next < len(self._pending)
            and self._pending[self._next][0] <= self.sent
        ):
            _, payload = self._pending[self._next]
            self._next += 1
            self.fire(payload)
        self.sent += 1

    def describe(self) -> str:
        return f"CountingLayer(triggers={len(self._pending)})"


class ProbeBudgetExceeded(RuntimeError):
    """Raised by :class:`CapLayer` when its probe budget is exhausted."""

    def __init__(self, cap: int) -> None:
        super().__init__(f"probe budget of {cap} exhausted")
        self.cap = cap


class CapLayer(CountingLayer):
    """Abort the run once ``cap`` probes have been sent.

    The election's rival-schedule bound: the budget trips *before* probe
    number ``cap`` (0-based) is evaluated, so exactly ``cap`` probes ever
    reach the wire. Callers catch :class:`ProbeBudgetExceeded`.
    """

    def __init__(self, cap: int) -> None:
        if cap < 0:
            raise ValueError("cap must be non-negative")
        super().__init__(((cap, None),))
        self.cap = cap

    def fire(self, payload: object) -> None:
        raise ProbeBudgetExceeded(self.cap)

    def describe(self) -> str:
        return f"CapLayer(cap={self.cap})"


class TraceBusLayer(ProbeLayer):
    """Publish every accounted :class:`ProbeRecord` to subscribers.

    The shared observation point: instrumentation, model-growth sampling
    and chaos oracles subscribe callbacks instead of threading bespoke
    hooks through service constructors. Subscribers run in subscription
    order and must not mutate the (frozen) record.
    """

    def __init__(
        self, subscribers: Iterable[Callable[[ProbeRecord], None]] = ()
    ) -> None:
        self._subscribers = tuple(subscribers)

    def after(self, ctx: ProbeContext) -> None:
        record = ctx.record
        assert record is not None
        for fn in self._subscribers:
            fn(record)

    def describe(self) -> str:
        return f"TraceBusLayer(subscribers={len(self._subscribers)})"


class RetryLayer(ProbeLayer):
    """Re-send missed probes up to ``retries`` extra times.

    Each retry is a complete fresh transaction: earlier layers' ``before``
    hooks fire again and a new record is accounted — byte-identical to the
    mapper itself re-sending the probe, which is what the old
    ``RetryingProbeService`` wrapper did.
    """

    def __init__(self, retries: int) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.retries = retries

    def retry_after_miss(self, ctx: ProbeContext) -> bool:
        return ctx.attempt < self.retries

    def describe(self) -> str:
        return f"RetryLayer(retries={self.retries})"


class InterferenceLayer(ProbeLayer):
    """Gate hits through channel occupancy (cross-traffic, shared fabric).

    A probe that evaluated clean against the quiescent network can still
    lose to interfering worms: the layer tries to place the probe's
    traversals into ``occupancy`` at the current simulated time and vetoes
    the hit when any channel is busy. ``traffic`` (optional) is a
    :class:`~repro.simulator.traffic.CrossTraffic` generator advanced to
    ``now + FILL_AHEAD_US`` before each placement. The clock is the
    service's accumulated ``stats.elapsed_us`` (:meth:`now_us`).
    """

    def __init__(
        self,
        occupancy,
        *,
        traffic=None,
        record_blocked: bool = True,
    ) -> None:
        self.occupancy = occupancy
        self.traffic = traffic
        self._record_blocked = record_blocked
        #: Hits vetoed by occupancy (the old ``probes_lost_to_traffic``).
        self.lost = 0

    def now_us(self, ctx: ProbeContext) -> float:
        return ctx.service.stats.elapsed_us

    def gate(self, ctx: ProbeContext) -> None:
        now = self.now_us(ctx)
        if self.traffic is not None:
            self.traffic.fill_until(now + FILL_AHEAD_US)
        placement = self.occupancy.try_place(
            ctx.info, now, record_blocked=self._record_blocked
        )
        if not placement.ok:
            self.lost += 1
            ctx.hit = False

    def describe(self) -> str:
        traffic = "on" if self.traffic is not None else "off"
        return f"InterferenceLayer(traffic={traffic}, lost={self.lost})"


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------


def build_service_stack(
    net,
    mapper: str,
    *,
    layers: Iterable[ProbeLayer] = (),
    service_cls: type | None = None,
    **service_kwargs,
):
    """Build a probe service as core engine + middleware layers.

    The single construction point for every probe path in the repo: the
    quiescent core (or a ``service_cls`` subclass adding probe kinds,
    e.g. the self-identifying baseline) plus the given layers in order.
    All remaining keyword arguments go to the service constructor
    (``collision=``, ``faults=``, ``jitter=``, ``rng=``, ``responders=``).
    """
    from repro.simulator.quiescent import QuiescentProbeService

    cls = QuiescentProbeService if service_cls is None else service_cls
    return cls(net, mapper, layers=tuple(layers), **service_kwargs)


def describe_stack(service) -> str:
    """Render the composed layer chain (``san-map map --stack``)."""
    lines = [f"core: {type(service).__name__}(mapper={service.mapper_host})"]
    layers = tuple(getattr(service, "stack_layers", ()))
    if not layers:
        lines.append("layers: (none)")
    for i, layer in enumerate(layers, 1):
        lines.append(f"layer {i}: {layer.describe()}")
    return "\n".join(lines)
