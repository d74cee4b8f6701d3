"""The quiescent-network probe service: the setting of the proof.

"Recall the assumption that the network is quiescent during mapping and thus
worms can only deadlock on themselves" (Section 2.3.1). Under quiescence a
probe's fate is a pure function of the topology, the collision model and the
fault model, so the service evaluates probes analytically and charges the
timing model for each — no event queue needed.

The service answers all five probe kinds: the two canonical ones
(``probe_host``, ``probe_switch``), the Myricom Algorithm's comparison worm
(``probe_loopback``), and the two Section 6 kinds, the firmware change's
early-host reply (``probe_host_any``) and the hypothetical
self-identifying switch (``probe_switch_id``). A kind costs nothing to a
mapper that never sends it.

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
:func:`~repro.simulator.stack.build_service_stack`. A stack with none (the
daemon's, the served job's) answers the two canonical kinds on a straight
line: the same checks, draws and accounting, none of the transaction's
context, callable or record. The other three kinds always take the
transaction: no served, daemon or benchmarked cycle sends them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.simulator.collision import CircuitModel, CollisionModel
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import (
    EvalCacheStats,
    IncrementalPathEvaluator,
    PathStatus,
    ProbeInfo,
)
from repro.simulator.probes import ProbeKind, ProbeRecord, ProbeStats
from repro.simulator.stack import ProbeContext, ProbeLayer
from repro.simulator.timing import PROBE_TIMEOUT_US, probe_response_us
from repro.simulator.turns import Turns, validate_turns
from repro.topology.model import SWITCH_RADIX, Network, PortRef

__all__ = ["QuiescentProbeService"]

_DELIVERED = PathStatus.DELIVERED


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
        Optional probe loss/corruption injection.
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
        # The fabric's widest switch (Myrinet's 8 on a switchless one) sets
        # the radix every mapper works to and the turn-alphabet radius:
        # Myrinet encodes {-7..+7}, and wider switches need wider flits.
        self._radix = max(
            (self.net.radix(s) for s in self.net.switches), default=SWITCH_RADIX
        )
        self._turn_limit = self._radix - 1
        self._rng = self.rng if self.rng is not None else random.Random(0)
        # Reads and extends the network's probe trie, which outlives this
        # service: the next cycle's service on the same network finds the
        # walks this one cached, pruned by whatever changed in between.
        self._evaluator = IncrementalPathEvaluator(self.net)
        # One reusable transaction context per service. ``_transact`` is
        # not re-entrant: no layer hook may probe through its own service
        # (they mutate clocks/topology or observe records instead), and
        # callers consume the context before the next probe starts. The
        # context does not point back here, so a dropped service, and the
        # trie storage its last answer reads, is freed by reference counts.
        self._ctx = ProbeContext(ProbeKind.HOST, ())
        # A hit's cost by hop count: one-way probes, then round trips.
        self._costs: tuple[dict[int, float], dict[int, float]] = ({}, {})
        self._last_validated: Turns | None = None
        for layer in self._layers:
            layer.on_attach(self)

    # -- the probe transaction -------------------------------------------
    def _transact(self, kind: ProbeKind, turns: Turns, evaluate) -> ProbeContext:
        """Run one probe through the full middleware pipeline.

        One attempt = before hooks, path evaluation, hit gates, the
        responder check, cost + accounting, after hooks. A layer may
        demand a retry after a miss; each retry is a complete fresh
        attempt (a re-sent probe), not a re-examination.

        The kind sets the reply's shape: a host-kind reply retraces the
        path and must come from a responder, while a switch-kind probe
        (switch, loopback, switch-id) returns to the mapper by itself.
        """
        layers = self._layers
        host = kind is ProbeKind.HOST
        costs = self._costs[host]
        ctx = self._ctx
        ctx.kind = kind
        ctx.turns = turns
        ctx.attempt = 0
        stats = self._stats
        while True:
            # Layer hooks may inspect any context field, so every attempt
            # starts from a scrubbed one.
            ctx.info = None
            ctx.hit = False
            ctx.response = None
            ctx.record = None
            ctx.payload = None
            for layer in layers:
                layer.before(ctx)
            evaluate(ctx)
            if ctx.hit:
                for layer in layers:
                    layer.gate(ctx)
                    if not ctx.hit:
                        break
            if host and ctx.hit and not self._responds(ctx.response):
                ctx.hit = False
            hit = ctx.hit
            if hit:
                # A hit's cost depends only on its hop count and the
                # reply's direction, so it is computed once per both.
                hops = ctx.info.hops
                cost = costs.get(hops)
                if cost is None:
                    cost = costs[hops] = probe_response_us(hops, hops if host else 0)
                response = ctx.response
            else:
                cost, response = PROBE_TIMEOUT_US, None
            if self.jitter:
                cost *= self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
            # Count the probe into the Figure 6 ledger.
            if host:
                stats.host_probes += 1
                stats.host_hits += hit
            else:
                stats.switch_probes += 1
                stats.switch_hits += hit
            stats.elapsed_us += cost
            ctx.record = ProbeRecord(kind, turns, hit, cost, response)
            for layer in layers:
                layer.after(ctx)
            if hit or not any(layer.retry_after_miss(ctx) for layer in layers):
                return ctx
            ctx.attempt += 1

    # -- evaluation callables (one per probe kind) -----------------------
    # Each decides whether the probe came back and what it names; the
    # engine gates it, checks a host answer's responder and accounts it.
    def _eval_host(self, ctx: ProbeContext) -> None:
        info = self._probe_info(ctx.turns)
        ctx.info = info
        if info.ok and info.blocked is None:
            if not self.faults.lost():
                assert info.delivered_to is not None
                ctx.hit = True
                ctx.response = info.delivered_to

    def _eval_switch(self, ctx: ProbeContext) -> None:
        info = self._loopback_info(ctx.turns)
        ctx.info = info
        if info.ok:
            # By construction the loopback terminates back at the mapper.
            assert info.delivered_to == self.mapper
            if info.blocked is None and not self.faults.lost():
                ctx.hit = True
                ctx.response = "switch"

    def _eval_loopback(self, ctx: ProbeContext) -> None:
        info = self._probe_info(ctx.turns)
        ctx.info = info
        if (
            info.ok
            and info.delivered_to == self.mapper
            and info.blocked is None
            and not self.faults.lost()
        ):
            ctx.hit = True
            ctx.response = "loopback"

    def _eval_host_any(self, ctx: ProbeContext) -> None:
        info = self._probe_info(ctx.turns)
        ctx.info = info
        if info.status is _DELIVERED:
            host, prefix = info.delivered_to, ctx.turns
        elif info.status is PathStatus.HIT_HOST_TOO_SOON:
            host = info.traversals[-1].dst.node
            # The walk crossed the attach wire plus one wire per turn it
            # consumed, and stopped on the next turn.
            prefix = ctx.turns[: info.hops - 1]
        else:
            return
        if self.collision.blocked_at(info.traversals) is None and not self.faults.lost():
            ctx.hit = True
            ctx.response = host
            ctx.payload = (host, prefix)

    def _eval_switch_id(self, ctx: ProbeContext) -> None:
        info = self._loopback_info(ctx.turns)
        ctx.info = info
        if info.ok and info.blocked is None and not self.faults.lost():
            # The identified switch is the bounce point, where the forward
            # half's last crossing (after the attach wire) lands.
            ctx.hit = True
            ctx.response = info.traversals[len(ctx.turns)].dst.node

    # -- ProbeService ----------------------------------------------------
    @property
    def mapper_host(self) -> str:
        return self.mapper

    @property
    def stats(self) -> ProbeStats:
        return self._stats

    @property
    def radix(self) -> int:
        return self._radix

    def find_layer(self, cls: type):
        """First attached layer that is an instance of ``cls``, or None."""
        for layer in self._layers:
            if isinstance(layer, cls):
                return layer
        return None

    # The two canonical kinds take a straight line on a layer-less stack
    # (the daemon's and the served job's): the checks and fault draws of
    # ``_eval_host`` / ``_eval_switch`` in the same order, and the same
    # accounting as ``_transact``, with no context, callable or record.
    def probe_host(self, turns: Turns) -> str | None:
        if turns is not self._last_validated:
            turns = self._last_validated = validate_turns(turns, limit=self._turn_limit)
        if self._layers:
            ctx = self._transact(ProbeKind.HOST, turns, self._eval_host)
            return ctx.response if ctx.hit else None
        info = self._probe_info(turns)
        hit = info.status is _DELIVERED and info.blocked is None and not self.faults.lost()
        host = info.delivered_to if hit and self._responds(info.delivered_to) else None
        cost = PROBE_TIMEOUT_US if host is None else self._costs[1].get(info.hops)
        if cost is None:
            cost = self._costs[1][info.hops] = probe_response_us(info.hops, info.hops)
        if self.jitter:
            cost *= self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        stats = self._stats
        stats.host_probes += 1
        stats.host_hits += host is not None
        stats.elapsed_us += cost
        return host

    def probe_switch(self, turns: Turns) -> bool:
        if turns is not self._last_validated:
            turns = self._last_validated = validate_turns(turns, limit=self._turn_limit)
        if self._layers:
            return self._transact(ProbeKind.SWITCH, turns, self._eval_switch).hit
        info = self._loopback_info(turns)
        hit = info.status is _DELIVERED and info.blocked is None and not self.faults.lost()
        # By construction a delivered loopback terminates back at the mapper.
        assert not hit or info.delivered_to == self.mapper
        cost = self._costs[0].get(info.hops) if hit else PROBE_TIMEOUT_US
        if cost is None:
            cost = self._costs[0][info.hops] = probe_response_us(info.hops, 0)
        if self.jitter:
            cost *= self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        stats = self._stats
        stats.switch_probes += 1
        stats.switch_hits += hit
        stats.elapsed_us += cost
        return hit

    def _validated(self, turns: Turns) -> Turns:
        """Validate a probe string, memoizing by object identity.

        The two halves of a probe pair pass the *same* tuple object; a probe
        string validated once is validated forever (validation depends only
        on its contents and the fixed turn limit), so the identity check is
        sound and skips re-walking the string on the second half.
        """
        if turns is not self._last_validated:
            turns = self._last_validated = validate_turns(turns, limit=self._turn_limit)
        return turns

    def probe_loopback(self, turns: Turns) -> bool:
        """Send an arbitrary worm (zeros allowed); True iff it returns here.

        The Myricom Algorithm's comparison probes ``T1..Tn X -Sm..-S1``
        (Section 4.1) are such worms: they are neither of the two canonical
        probe kinds, but the mapper only learns whether the message came
        back. Accounted as a switch-kind probe in the generic stats; the
        Myricom mapper keeps its own per-category counters on top.
        """
        seq = validate_turns(turns, allow_zero=True, limit=self._turn_limit)
        return self._transact(ProbeKind.SWITCH, seq, self._eval_loopback).hit

    def probe_host_any(self, turns: Turns) -> tuple[str, Turns] | None:
        """Host-probe that also succeeds on HIT-A-HOST-TOO-SOON.

        The Section 6 firmware change: "instead of a 'hit host too soon'
        error causing a message to be discarded, the host could read it
        and send a response". Returns ``(host, prefix)``, where ``prefix``
        is the (possibly whole) turn string that reached the host, or
        ``None``. The coupon mapper's random walks send it.
        """
        ctx = self._transact(ProbeKind.HOST, self._validated(turns), self._eval_host_any)
        return ctx.payload if ctx.hit else None

    def probe_switch_id(self, turns: Turns) -> str | None:
        """Switch-probe whose returning loopback carries the switch's id.

        Section 6's hypothetical self-identifying switch: the name of the
        switch the probe bounced off, or ``None``. The self-id baseline
        sends it.
        """
        ctx = self._transact(ProbeKind.SWITCH, self._validated(turns), self._eval_switch_id)
        return ctx.response if ctx.hit else None

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

    def route_crosses(
        self, turns: Turns, endpoints: frozenset[PortRef] | set[PortRef]
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
