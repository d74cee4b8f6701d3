"""Equivalence property: the prefix-trie evaluator is invisible.

The `IncrementalPathEvaluator` behind `QuiescentProbeService` is a pure
optimisation — for any topology, collision model, fault model, jitter seed
and probe sequence, the cached service must produce **byte-identical**
observables to the pure-walk oracle (`tests/simulator/reference_service.py`): every
probe return value, every `ProbeRecord` in the trace (costs included), and
the final `ProbeStats` counters. That includes runs where faults are
injected, cables are cut, and the responder set changes mid-sequence — the
epoch counters on `Network`/`FaultModel` must invalidate exactly enough.

The three probe-plan tests together run ≥200 randomized cases (120 + 50 +
40). `TestMappingEquivalence` pins the same property one layer up: a whole
`BerkeleyMapper` run on each arm, through a cable cut that lands mid-map
and flushes the cached arm's trie.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.instrumentation import TraceRecorder
from repro.core.mapper import BerkeleyMapper
from repro.simulator.collision import CircuitModel, CutThroughModel, PacketModel
from repro.simulator.faults import FaultModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import CountingLayer, TraceBusLayer, build_service_stack
from repro.topology.generators import random_san
from repro.topology.model import TopologyError
from tests.simulator.reference_service import PureWalkProbeService
from tests.topology.reference_isomorphism import networks_equal

network_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=5),
        "n_hosts": st.integers(min_value=2, max_value=5),
        "extra_links": st.integers(min_value=0, max_value=3),
        "parallel_link_prob": st.sampled_from([0.0, 0.5]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)

_turns = st.lists(
    st.integers(min_value=-3, max_value=3).filter(bool), min_size=1, max_size=6
).map(tuple)
_loop_turns = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=6
).map(tuple)

#: One step of a probe plan: a probe, or a mid-run reconfiguration.
_probe_ops = st.one_of(
    st.tuples(st.just("host"), _turns),
    st.tuples(st.just("switch"), _turns),
    st.tuples(st.just("loopback"), _loop_turns),
)
_mutating_ops = st.one_of(
    _probe_ops,
    st.tuples(st.just("faults"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("responders"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("cut_wire"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("plug_wire"), st.integers(min_value=0, max_value=10_000)),
)

_collisions = st.sampled_from(
    [CircuitModel(), CutThroughModel(slack_hops=2), PacketModel()]
)

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class _KeptTrace(TraceBusLayer):
    """A trace bus whose subscriber is a TraceRecorder the test reads back."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder()
        super().__init__((self.recorder,))


def _services(params, collision, *, drop, corrupt, jitter, seed):
    """The cached service and its pure-walk twin, identically configured.

    Both share one Network object (so a topology cut hits both) but carry
    their *own* FaultModel — the models draw from private RNGs whose states
    must advance in lockstep if and only if the two arms make identical
    decisions, which is exactly the property under test.
    """
    try:
        net = random_san(**params)
    except TopologyError:
        return None
    mapper = sorted(net.hosts)[0]

    def build(service_cls: type) -> QuiescentProbeService:
        # Built through the stack factory with a recording trace bus so
        # the equivalence proof covers the stacked construction path too.
        return build_service_stack(
            net,
            mapper,
            layers=(_KeptTrace(),),
            collision=collision,
            faults=FaultModel(drop_prob=drop, corrupt_prob=corrupt, seed=seed),
            jitter=jitter,
            rng=random.Random(seed),
            service_cls=service_cls,
        )

    return build(QuiescentProbeService), build(PureWalkProbeService)


def _apply(op, payload, cached, pure) -> None:
    """Run one plan step on both services, asserting identical observables."""
    net = cached.net
    if op == "host":
        assert cached.probe_host(payload) == pure.probe_host(payload)
    elif op == "switch":
        assert cached.probe_switch(payload) == pure.probe_switch(payload)
    elif op == "loopback":
        assert cached.probe_loopback(payload) == pure.probe_loopback(payload)
    elif op == "faults":
        wires = net.wires
        rnd = random.Random(payload)
        dead = (
            [frozenset((w.a, w.b)) for w in rnd.sample(wires, 1)] if wires else []
        )
        cached.faults.set_dead_wires(dead)
        pure.faults.set_dead_wires(dead)
    elif op == "responders":
        hosts = sorted(net.hosts)
        rnd = random.Random(payload)
        subset = frozenset(rnd.sample(hosts, rnd.randint(0, len(hosts))))
        cached.responders = subset
        pure.responders = subset
    elif op == "cut_wire":
        wires = net.wires
        if wires:
            net.disconnect(random.Random(payload).choice(wires))
    elif op == "plug_wire":
        # Added connectivity invalidates cached *absences* (memoized
        # NO_SUCH_WIRE walks) — the flush must drop those too.
        free = [
            (name, port)
            for name in sorted(net.switches)
            for port in net.free_ports(name)
        ]
        pairs = [(a, b) for a in free for b in free if a[0] != b[0]]
        if pairs:
            (an, ap), (bn, bp) = random.Random(payload).choice(pairs)
            try:
                net.connect(an, ap, bn, bp)
            except TopologyError:
                pass
    else:  # pragma: no cover - strategy restricts ops
        raise AssertionError(op)


def _assert_stats_identical(cached, pure) -> None:
    a, b = cached.stats, pure.stats
    assert (a.host_probes, a.host_hits) == (b.host_probes, b.host_hits)
    assert (a.switch_probes, a.switch_hits) == (b.switch_probes, b.switch_hits)
    # Byte-identical, not approximately equal: both arms must charge the
    # exact same float costs in the exact same order.
    assert a.elapsed_us == b.elapsed_us  # noqa: timing equality is the point
    assert (
        cached.find_layer(_KeptTrace).recorder.records
        == pure.find_layer(_KeptTrace).recorder.records
    )


class TestCacheEquivalence:
    @given(
        params=network_params,
        collision=_collisions,
        plan=st.lists(_mutating_ops, min_size=5, max_size=30),
        jitter=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, **_SETTINGS)
    def test_mixed_plans_byte_identical(self, params, collision, plan, jitter, seed):
        """Probes interleaved with fault injection, cable cuts and
        responder churn: the cache may never change an observable."""
        pair = _services(
            params, collision, drop=0.0, corrupt=0.0, jitter=jitter, seed=seed
        )
        if pair is None:
            return
        cached, pure = pair
        for op, payload in plan:
            _apply(op, payload, cached, pure)
        _assert_stats_identical(cached, pure)
        stats = cached.eval_cache_stats
        assert stats is not None and pure.eval_cache_stats is None
        # hits/misses count per-node trie steps, evaluations count probe
        # walks: both only ever grow, and the rate stays a valid fraction.
        assert stats.hits >= 0 and stats.misses >= 0
        assert 0.0 <= stats.hit_rate <= 1.0
        if any(op in ("host", "switch", "loopback") for op, _ in plan):
            assert stats.evaluations > 0

    @given(
        params=network_params,
        collision=_collisions,
        plan=st.lists(_probe_ops, min_size=10, max_size=30),
        drop=st.sampled_from([0.1, 0.5]),
        corrupt=st.sampled_from([0.0, 0.3]),
        fault_at=st.integers(min_value=0, max_value=9),
        fault_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50, **_SETTINGS)
    def test_stochastic_faults_and_midrun_dead_wire(
        self, params, collision, plan, drop, corrupt, fault_at, fault_seed
    ):
        """Drop/corrupt RNGs must advance in lockstep across the two arms,
        through a dead-wire injection mid-sequence."""
        pair = _services(
            params, collision, drop=drop, corrupt=corrupt, jitter=0.0, seed=7
        )
        if pair is None:
            return
        cached, pure = pair
        for i, (op, payload) in enumerate(plan):
            if i == fault_at:
                _apply("faults", fault_seed, cached, pure)
            _apply(op, payload, cached, pure)
        _assert_stats_identical(cached, pure)

    @given(
        params=network_params,
        plan=st.lists(_probe_ops, min_size=8, max_size=20),
        responders_at=st.integers(min_value=0, max_value=7),
        responder_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, **_SETTINGS)
    def test_responder_set_changes_midrun(
        self, params, plan, responders_at, responder_seed
    ):
        """Shrinking/growing the responder set mid-run flips host-probe
        outcomes without touching path evaluation — the cached walk state
        must stay valid across the change."""
        pair = _services(
            params, CircuitModel(), drop=0.0, corrupt=0.0, jitter=0.0, seed=3
        )
        if pair is None:
            return
        cached, pure = pair
        for i, (op, payload) in enumerate(plan):
            if i == responders_at:
                _apply("responders", responder_seed, cached, pure)
            _apply(op, payload, cached, pure)
        _assert_stats_identical(cached, pure)


def _map_with_cut(params, service_cls, *, seed, cut_at, cut_seed):
    """One full mapping run with a cable cut after ``cut_at`` probes.

    Each arm builds its own Network from the same generator seed, so the
    arms never see each other's damage. The cut fires off a probe-count
    trigger and so lands at the same probe ordinal in both arms.
    """
    net = random_san(**params)

    def cut() -> None:
        wires = net.wires
        if wires:
            net.disconnect(random.Random(cut_seed).choice(wires))

    svc = build_service_stack(
        net,
        sorted(net.hosts)[0],
        layers=(CountingLayer(((cut_at, cut),)), _KeptTrace()),
        faults=FaultModel(seed=seed),
        rng=random.Random(seed),
        service_cls=service_cls,
    )
    try:
        result = BerkeleyMapper(svc, search_depth=6, host_first=False).map()
    except Exception as exc:  # a mid-run cut may legally trip the mapper
        return f"{type(exc).__name__}: {exc}", svc
    return result, svc


class TestMappingEquivalence:
    @given(
        params=network_params,
        cut_at=st.integers(min_value=0, max_value=40),
        cut_seed=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, **_SETTINGS)
    def test_midrun_cut_maps_alike(self, params, cut_at, cut_seed, seed):
        """A cable cut mid-map flushes the cached arm's trie; the whole map,
        every probe record and every cost must match the pure walk."""
        try:
            (got, cached), (want, pure) = (
                _map_with_cut(
                    params, cls, seed=seed, cut_at=cut_at, cut_seed=cut_seed
                )
                for cls in (QuiescentProbeService, PureWalkProbeService)
            )
        except TopologyError:
            return
        assert type(got) is type(want)
        if isinstance(got, str):
            assert got == want
        else:
            assert networks_equal(got.network, want.network)
            assert (got.merges, got.explorations) == (
                want.merges, want.explorations
            )
        _assert_stats_identical(cached, pure)
