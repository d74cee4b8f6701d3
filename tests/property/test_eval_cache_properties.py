"""Equivalence property: the prefix-trie evaluator is invisible.

The `IncrementalPathEvaluator` behind `QuiescentProbeService` is a pure
optimisation — for any topology, collision model, fault model, jitter seed
and probe sequence, the cached service must produce **byte-identical**
observables to the pure-walk oracle (`tests/simulator/reference_service.py`): every
probe return value, every `ProbeRecord` in the trace (costs included), and
the final `ProbeStats` counters. That includes runs where probes are lost,
cables are cut or plugged, and the responder set changes mid-sequence — the
network's journal must invalidate exactly enough.

The three probe-plan tests together run ≥200 randomized cases (120 + 50 +
40). `TestMappingEquivalence` pins the same property one layer up: a whole
`BerkeleyMapper` run on each arm, through a cable cut that lands mid-map
and flushes the cached arm's trie. `TestLastWalkEquivalence` drives two
services on one network through the mapper's own access pattern (runs of
sibling strings, each probed twice as one tuple, repeats, cuts and plugs
between them) and also holds every evaluation-cache counter to a run whose
evaluators forget their last walk. `TestFirmwareKindEquivalence` (80
cases) holds the two Section 6 firmware kinds, coupon's early-host probe
and self-id's identity probe, to the pure walk's answers read off the
whole walked path.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.instrumentation import TraceRecorder
from repro.core.mapper import BerkeleyMapper
from repro.simulator.collision import CircuitModel, CutThroughModel, PacketModel
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import evaluate_route
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import CountingLayer, TraceBusLayer
from repro.topology.generators import random_san
from repro.topology.model import TopologyError
from tests.simulator.reference_service import PureWalkProbeService
from tests.simulator.trie_view import MemoFreeProbeService
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


def _services(
    params,
    collision,
    *,
    drop,
    corrupt,
    jitter,
    seed,
):
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

    def build(cls: type) -> QuiescentProbeService:
        # Built with a recording trace bus, so the equivalence proof
        # covers the records the layers read.
        return cls(
            net,
            mapper,
            layers=(_KeptTrace(),),
            collision=collision,
            faults=FaultModel(drop_prob=drop, corrupt_prob=corrupt, seed=seed),
            jitter=jitter,
            rng=random.Random(seed),
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
    elif op == "host_any":
        assert cached.probe_host_any(payload) == pure.probe_host_any(payload)
    elif op == "switch_id":
        assert cached.probe_switch_id(payload) == pure.probe_switch_id(payload)
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
        """Probes interleaved with cable cuts and plugs and responder
        churn: the cache may never change an observable."""
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
        # hits/misses count per-node trie steps: neither goes negative,
        # and the rate stays a valid fraction.
        assert stats.hits >= 0 and stats.misses >= 0
        assert 0.0 <= stats.hit_rate <= 1.0

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
        through a cable failing mid-sequence (a failed cable is a missing
        wire, so the chaos applier disconnects it)."""
        pair = _services(
            params, collision, drop=drop, corrupt=corrupt, jitter=0.0, seed=7
        )
        if pair is None:
            return
        cached, pure = pair
        for i, (op, payload) in enumerate(plan):
            if i == fault_at:
                _apply("cut_wire", fault_seed, cached, pure)
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


#: The Section 6 firmware kinds. Wider turns than the native plans use,
#: so a walk often brushes a host before its last turn (coupon's early
#: reply) or falls off.
_wide_turns = st.lists(
    st.integers(min_value=-5, max_value=5).filter(bool), max_size=6
).map(tuple)
_FIRMWARE = ("host_any", "switch_id")


class TestFirmwareKindEquivalence:
    @given(
        params=network_params,
        collision=_collisions,
        kind=st.sampled_from(_FIRMWARE),
        plan=st.lists(
            st.one_of(
                st.tuples(st.just("probe"), _wide_turns),
                st.tuples(st.just("host"), _turns),
                st.tuples(
                    st.sampled_from(["responders", "cut_wire", "plug_wire"]),
                    st.integers(min_value=0, max_value=10_000),
                ),
            ),
            min_size=5,
            max_size=25,
        ),
        drop=st.sampled_from([0.0, 0.3]),
        jitter=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, **_SETTINGS)
    def test_cached_walk_answers_as_the_pure_walk(
        self, params, collision, kind, plan, drop, jitter, seed
    ):
        """Coupon's early-host probe and self-id's identity probe read the
        cached walk: the same answers (the early host's prefix, the bounce
        switch), the same records and the same fault draws as a re-walk."""
        pair = _services(
            params, collision, drop=drop, corrupt=0.0, jitter=jitter, seed=seed
        )
        if pair is None:
            return
        cached, pure = pair
        for op, payload in plan:
            _apply(kind if op == "probe" else op, payload, cached, pure)
        _assert_stats_identical(cached, pure)


def _map_with_cut(params, cls, *, seed, cut_at, cut_seed):
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

    svc = cls(
        net,
        sorted(net.hosts)[0],
        layers=(CountingLayer(((cut_at, cut),)), _KeptTrace()),
        faults=FaultModel(seed=seed),
        rng=random.Random(seed),
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


_turn = st.integers(min_value=-3, max_value=3).filter(bool)

_move = st.one_of(
    st.tuples(st.just("none"), st.just(0)),
    st.tuples(st.just("cut_path"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("cut_wire"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("plug_wire"), st.integers(min_value=0, max_value=10_000)),
)

#: One round of the hazard: a run of siblings ``prefix + (t,)`` on one
#: service, a topology move (a cut of a wire that run's last walk crossed
#: among them), a probe by the other service (whose walk catches the trie
#: up), a re-send of the first service's last string object or not, and
#: more siblings of the same prefix on the first service.
_rounds = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.lists(_turn, max_size=4).map(tuple),
    st.lists(_turn, min_size=1, max_size=4),
    _move,
    st.lists(_turn, max_size=5).map(tuple),
    st.booleans(),
    st.lists(_turn, min_size=1, max_size=4),
    st.booleans(),
)


def _pair(svc, turns, host_first=True):
    """Both halves of the probe pair on one string, in the given order."""
    if host_first:
        return svc.probe_host(turns), svc.probe_switch(turns)
    return svc.probe_switch(turns), svc.probe_host(turns)


def _run_rounds(params, collision, rounds, cls):
    """The rounds on two services of ``cls`` sharing one network;
    every answer in order, and the two services."""
    net = random_san(**params)
    mapper = sorted(net.hosts)[0]
    services = [
        cls(net, mapper, layers=(_KeptTrace(),), collision=collision)
        for _ in range(2)
    ]
    answers: list[object] = []
    for which, prefix, first, (move, seed), other, repeat, then, host_first in rounds:
        svc = services[which]
        probe = prefix
        for turn in first:
            probe = prefix + (turn,)
            answers.append(_pair(svc, probe, host_first))
        if move == "cut_path":
            crossed = [
                net.wire_at(tr.src.node, tr.src.port)
                for tr in evaluate_route(net, mapper, probe).traversals
            ]
            if crossed:
                net.disconnect(random.Random(seed).choice(crossed))
        elif move != "none":
            _apply(move, seed, svc, None)
        answers.append(_pair(services[1 - which], other))
        if repeat:
            answers.append((svc.probe_switch(probe), svc.probe_host(probe)))
        for turn in then:
            answers.append(_pair(svc, prefix + (turn,), host_first))
    return answers, services


class TestLastWalkEquivalence:
    @given(
        params=network_params,
        collision=_collisions,
        rounds=st.lists(_rounds, min_size=1, max_size=6),
    )
    @settings(max_examples=60, **_SETTINGS)
    def test_sibling_runs_repeats_and_cuts(self, params, collision, rounds):
        """Remembering the last walk changes no answer, no record and no
        cache counter, whichever service's walk reshaped the trie."""
        try:
            (got, cached), (want, pure), (free, memo_free) = (
                _run_rounds(params, collision, rounds, cls)
                for cls in (
                    QuiescentProbeService,
                    PureWalkProbeService,
                    MemoFreeProbeService,
                )
            )
        except TopologyError:
            return
        assert got == want == free
        for ours, theirs in zip(cached, pure):
            _assert_stats_identical(ours, theirs)
        assert [s.eval_cache_stats for s in cached] == [
            s.eval_cache_stats for s in memo_free
        ]
