"""The quiescent-network probe service: the setting of the proof.

"Recall the assumption that the network is quiescent during mapping and thus
worms can only deadlock on themselves" (Section 2.3.1). Under quiescence a
probe's fate is a pure function of the topology, the collision model and the
fault model, so the service evaluates probes analytically and charges the
timing model for each — no event queue needed.

Host-probe semantics beyond path evaluation:

- the terminal host must be running a mapper daemon (active or passive) to
  reply — hosts without one silently eat the probe (this is the Figure 9
  mechanism: absent responders turn would-be hits into expensive timeouts);
- the reply retraces the probe path in reverse; under quiescence it cannot
  collide with anything (the probe worm is gone by then).

Non-quiescent concerns — election silence, shared-fabric contention, chaos
event injection, cross-traffic, probe budgets — are *not* subclassed or
wrapped around this service. They are middleware layers from
:mod:`repro.simulator.stack` hooking into the single probe transaction
(:meth:`QuiescentProbeService._transact`); compose them with
:func:`~repro.simulator.stack.build_service_stack`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.simulator.collision import CircuitModel, CollisionModel
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import (
    EvalCacheStats,
    IncrementalPathEvaluator,
    PathResult,
    ProbeInfo,
)
from repro.simulator.probes import ProbeKind, ProbeRecord, ProbeStats
from repro.simulator.stack import ProbeContext, ProbeLayer
from repro.simulator.timing import PROBE_TIMEOUT_US, probe_response_us
from repro.simulator.turns import Turns, validate_turns
from repro.topology.delta import Endpoint
from repro.topology.model import Network

__all__ = ["QuiescentProbeService"]


@dataclass
class QuiescentProbeService:
    """Evaluate probes against a quiescent network.

    Parameters
    ----------
    net:
        The actual network ``N`` (never exposed to the mapper).
    mapper:
        The host injecting probes (``h0``).
    collision:
        Self-collision model; the proof's two cases are
        :class:`~repro.simulator.collision.CircuitModel` and
        :class:`~repro.simulator.collision.CutThroughModel`.
    responders:
        Hosts that answer host-probes. ``None`` means every host.
    faults:
        Optional loss/corruption/dead-wire injection.
    layers:
        Middleware layers (:class:`~repro.simulator.stack.ProbeLayer`)
        hooked into every probe transaction, in order.
    rng:
        Share a jitter RNG with the caller (the election run interleaves
        its own draws with probe jitter on one stream). ``None`` seeds a
        private ``random.Random(0)``.

    Probe costs come from :mod:`~repro.simulator.timing` and accumulate
    in ``stats.elapsed_us``.
    """

    net: Network
    mapper: str
    collision: CollisionModel = field(default_factory=CircuitModel)
    responders: frozenset[str] | None = None
    faults: FaultModel = field(default_factory=FaultModel)
    #: Multiplicative software-time jitter: each probe's cost is scaled by a
    #: uniform factor in [1 - jitter, 1 + jitter]. Models OS scheduling and
    #: SBUS contention noise — the source of the paper's min/avg/max spread
    #: in Figure 7. Zero disables it (fully deterministic timing).
    jitter: float = 0.0
    layers: tuple = ()
    rng: random.Random | None = None

    def __post_init__(self) -> None:
        if not self.net.is_host(self.mapper):
            raise ValueError(f"mapper {self.mapper} is not a host")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self._stats = ProbeStats()
        self._layers: tuple[ProbeLayer, ...] = tuple(self.layers)
        # Turn-alphabet radius: Myrinet encodes {-7..+7}; wider fabrics
        # need wider routing flits, so derive the limit from the hardware.
        self._turn_limit = max(
            (self.net.radix(s) - 1 for s in self.net.switches), default=7
        )
        self._rng = self.rng if self.rng is not None else random.Random(0)
        # Reads and extends the network's probe trie, which outlives this
        # service: the next cycle's service on the same network finds the
        # walks this one cached, pruned by whatever changed in between.
        self._evaluator = IncrementalPathEvaluator(self.net)
        # One reusable transaction context per service. ``_transact`` is
        # not re-entrant: no layer hook may probe through its own service
        # (they mutate clocks/topology or observe records instead), and
        # callers consume the context before the next probe starts.
        self._ctx = ProbeContext(ProbeKind.HOST, (), self)
        self._last_validated: Turns | None = None
        for layer in self._layers:
            layer.on_attach(self)

    def _jittered(self, cost: float) -> float:
        if not self.jitter:
            return cost
        return cost * self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)

    # -- the probe transaction -------------------------------------------
    def _transact(
        self,
        kind: ProbeKind,
        turns: Turns,
        evaluate,
        *,
        round_trip: bool,
        check_responder: bool = False,
    ) -> ProbeContext:
        """Run one probe through the full middleware pipeline.

        One attempt = before hooks, path evaluation, hit gates, the
        responder check, cost + accounting, after hooks. A layer may
        demand a retry after a miss; each retry is a complete fresh
        attempt (a re-sent probe), not a re-examination.
        """
        layers = self._layers
        ctx = self._ctx
        ctx.kind = kind
        ctx.turns = turns
        ctx.attempt = 0
        ctx.hit = False
        if layers:
            # Layer hooks may inspect any context field, so scrub the
            # leftovers from the previous transaction. The layerless fast
            # path skips this: evaluate() always writes ``info`` before
            # the engine reads it, and the hit-only fields are only read
            # when this transaction's evaluate set them.
            ctx.info = None
            ctx.responder = None
            ctx.response = None
            ctx.record = None
            ctx.payload = None
        while True:
            if layers:
                for layer in layers:
                    layer.before(ctx)
            evaluate(ctx)
            if layers and ctx.hit:
                for layer in layers:
                    layer.gate(ctx)
                    if not ctx.hit:
                        break
            if check_responder and ctx.hit and not self._responds(ctx.responder):
                ctx.hit = False
            hit = ctx.hit
            info = ctx.info
            cost = self._jittered(
                probe_response_us(info.hops, info.hops if round_trip else 0)
                if hit
                else PROBE_TIMEOUT_US
            )
            record = ProbeRecord(
                kind, turns, hit, cost, ctx.response if hit else None
            )
            self._stats.record(record)
            ctx.record = record
            if layers:
                for layer in layers:
                    layer.after(ctx)
                if not hit and any(
                    layer.retry_after_miss(ctx) for layer in layers
                ):
                    ctx.attempt += 1
                    ctx.info = None
                    ctx.hit = False
                    ctx.responder = None
                    ctx.response = None
                    ctx.record = None
                    ctx.payload = None
                    continue
            return ctx

    # -- evaluation callables (one per probe kind) -----------------------
    def _eval_host(self, ctx: ProbeContext) -> None:
        info = self._probe_info(ctx.turns)
        ctx.info = info
        if info.ok and info.blocked is None:
            # Inactive faults kill nothing and draw nothing, so skipping the
            # call is byte-identical (and the traversal tuple is never built).
            if not self.faults.active or not self.faults.kills_traversals(
                info.traversals
            ):
                target = info.delivered_to
                assert target is not None
                ctx.hit = True
                ctx.responder = target
                ctx.response = target

    def _eval_switch(self, ctx: ProbeContext) -> None:
        info = self._loopback_info(ctx.turns)
        ctx.info = info
        if info.ok:
            # By construction the loopback terminates back at the mapper.
            assert info.delivered_to == self.mapper
            if info.blocked is None and (
                not self.faults.active
                or not self.faults.kills_traversals(info.traversals)
            ):
                ctx.hit = True
                ctx.response = "switch"

    def _eval_loopback(self, ctx: ProbeContext) -> None:
        info = self._probe_info(ctx.turns)
        ctx.info = info
        if (
            info.ok
            and info.delivered_to == self.mapper
            and info.blocked is None
            and (
                not self.faults.active
                or not self.faults.kills_traversals(info.traversals)
            )
        ):
            ctx.hit = True
            ctx.response = "loopback"

    # -- ProbeService ----------------------------------------------------
    @property
    def mapper_host(self) -> str:
        return self.mapper

    @property
    def stats(self) -> ProbeStats:
        return self._stats

    @property
    def stack_layers(self) -> tuple[ProbeLayer, ...]:
        """The middleware layers, in hook order."""
        return self._layers

    def find_layer(self, cls: type):
        """First attached layer that is an instance of ``cls``, or None."""
        for layer in self._layers:
            if isinstance(layer, cls):
                return layer
        return None

    def probe_host(self, turns: Turns) -> str | None:
        turns = self._validated(turns)
        ctx = self._transact(
            ProbeKind.HOST,
            turns,
            self._eval_host,
            round_trip=True,
            check_responder=True,
        )
        return ctx.responder if ctx.hit else None

    def probe_switch(self, turns: Turns) -> bool:
        turns = self._validated(turns)
        ctx = self._transact(
            ProbeKind.SWITCH, turns, self._eval_switch, round_trip=False
        )
        return ctx.hit

    def _validated(self, turns: Turns) -> Turns:
        """Validate a probe string, memoizing by object identity.

        The two halves of a probe pair pass the *same* tuple object; a probe
        string validated once is validated forever (validation depends only
        on its contents and the fixed turn limit), so the identity check is
        sound and skips re-walking the string on the second half.
        """
        if turns is self._last_validated:
            return turns
        out = validate_turns(turns, limit=self._turn_limit)
        self._last_validated = out if out is turns else None
        return out

    def probe_loopback(self, turns: Turns) -> bool:
        """Send an arbitrary worm (zeros allowed); True iff it returns here.

        The Myricom Algorithm's comparison probes ``T1..Tn X -Sm..-S1``
        (Section 4.1) are such worms: they are neither of the two canonical
        probe kinds, but the mapper only learns whether the message came
        back. Accounted as a switch-kind probe in the generic stats; the
        Myricom mapper keeps its own per-category counters on top.
        """
        seq = validate_turns(turns, allow_zero=True, limit=self._turn_limit)
        ctx = self._transact(
            ProbeKind.SWITCH, seq, self._eval_loopback, round_trip=False
        )
        return ctx.hit

    # -- cached evaluation -------------------------------------------------
    # The pure-walk oracle this section is proven byte-equivalent to (same
    # records, same fault-RNG draw points) overrides exactly these methods:
    # tests/simulator/reference_service.py.
    def _probe_info(self, turns: Turns) -> ProbeInfo:
        """Walk ``turns`` from the mapper, with the collision verdict.

        Answered from the trie; the traversal tuple is built on read.
        """
        return self._evaluator.probe_info(self.mapper, turns, self.collision)

    def _loopback_info(self, turns: Turns) -> ProbeInfo:
        """Switch-probe loopback of ``turns`` without walking the retrace."""
        return self._evaluator.loopback_info(self.mapper, turns, self.collision)

    def _path(self, turns: Turns) -> PathResult:
        """Full :class:`PathResult` (node list included) for subclasses."""
        return self._evaluator.evaluate(self.mapper, turns)

    def route_crosses(
        self, turns: Turns, endpoints: frozenset[Endpoint] | set[Endpoint]
    ) -> bool:
        """Whether the route's footprint intersects the given wire ends.

        The link this models: the paper's environment reports a fault as a
        wire-level event, and an incremental remapper must correlate its
        recorded probe paths against that report to decide which deductions
        still stand. The correlation is *local* — it consults the cached
        walk, sends nothing, and charges no probe to the stats; see
        docs/INCREMENTAL.md for why this deviation from the probe-only
        discipline is sound. Turn values are not alphabet-checked: the
        caller correlates prior-map port arithmetic, not a sendable probe
        string.
        """
        return self._evaluator.touches(self.mapper, tuple(turns), endpoints)

    @property
    def eval_cache_stats(self) -> EvalCacheStats:
        """This service's own walks since it was built, and the size of
        the network's evaluation trie they read."""
        return self._evaluator.stats

    # -- helpers ----------------------------------------------------------
    def _responds(self, host: str) -> bool:
        if host == self.mapper:
            # The mapper's own interface always answers (it is running the
            # active mapper daemon by definition).
            return True
        return self.responders is None or host in self.responders

    def response(self, turns: Turns, *, host_first: bool = True):
        """The full probe pair of Section 2.3: returns ``R(turns)``.

        ``host_first`` controls which of the two tests is sent first; the
        second is skipped when the first already identified the node.
        Returns a host name, the string ``"switch"``, or ``None``.
        """
        if host_first:
            host = self.probe_host(turns)
            if host is not None:
                return host
            return "switch" if self.probe_switch(turns) else None
        if self.probe_switch(turns):
            return "switch"
        return self.probe_host(turns)
