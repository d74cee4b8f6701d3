"""Equivalence property: sibling-batched probing is invisible.

`BerkeleyMapper` announces each explore's sibling group to the service
(`warm_siblings`), which primes the evaluator's hint table so the shared
probe-string prefix is walked once. The oracle arm is the same mapper over
the pure-walk oracle (`tests/simulator/reference_service.py`): no trie, no
hint table, every probe re-walked by the pure `evaluate_route`. Batching is a pure optimisation — for any
topology, fault configuration and mid-run perturbation the two arms must
produce **byte-identical** observables: the same produced network (names
included), the same merge/exploration counts, every `ProbeRecord` on the
trace bus (costs included), and lockstep fault-RNG draws.

The evaluator-level test pins the same property one layer down: a
`warm_siblings()`-primed group against N independent `probe_info()` walks
on an unprimed evaluator, through topology cuts that invalidate the trie
between batches.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.instrumentation import TraceRecorder
from repro.core.mapper import BerkeleyMapper
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import IncrementalPathEvaluator
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import CountingLayer, TraceBusLayer, build_service_stack
from repro.topology.generators import random_san
from repro.topology.isomorphism import networks_equal
from repro.topology.model import TopologyError
from tests.simulator.reference_service import PureWalkProbeService

network_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=5),
        "n_hosts": st.integers(min_value=2, max_value=5),
        "extra_links": st.integers(min_value=0, max_value=3),
        "parallel_link_prob": st.sampled_from([0.0, 0.5]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)

#: The batched service and the pure-walk oracle.
_ARMS = (QuiescentProbeService, PureWalkProbeService)

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _run_arm(
    params, *, service_cls, drop, corrupt, jitter, seed, cut_at, cut_seed
):
    """One full mapping run; returns (outcome, result-or-error, stats, trace).

    Each arm builds its own Network from the same generator seed: a mid-run
    cable cut mutates the topology, and the arms must not see each other's
    damage. The cut fires off a probe-count trigger, so it lands at the
    same probe ordinal in both arms — if batching ever reordered or skipped
    a probe, the cut would land elsewhere and the observables diverge.
    """
    net = random_san(**params)
    mapper_host = sorted(net.hosts)[0]
    triggers = []
    if cut_at is not None:

        def cut() -> None:
            wires = net.wires
            if wires:
                net.disconnect(random.Random(cut_seed).choice(wires))

        triggers.append((cut_at, cut))
    recorder = TraceRecorder()
    svc = build_service_stack(
        net,
        mapper_host,
        layers=(CountingLayer(triggers), TraceBusLayer((recorder,))),
        faults=FaultModel(drop_prob=drop, corrupt_prob=corrupt, seed=seed),
        jitter=jitter,
        seed=seed,
        service_cls=service_cls,
    )
    mapper = BerkeleyMapper(svc, search_depth=6, host_first=False)
    try:
        result = mapper.run()
    except Exception as exc:  # a mid-run cut may legally trip the mapper
        return "error", f"{type(exc).__name__}: {exc}", svc.stats, recorder.records
    return "ok", result, svc.stats, recorder.records


def _assert_arms_identical(batched, unbatched) -> None:
    b_kind, b_val, b_stats, b_trace = batched
    u_kind, u_val, u_stats, u_trace = unbatched
    assert b_kind == u_kind
    if b_kind == "error":
        assert b_val == u_val
    else:
        assert networks_equal(b_val.network, u_val.network)
        assert b_val.merges == u_val.merges
        assert b_val.explorations == u_val.explorations
    assert (b_stats.host_probes, b_stats.host_hits) == (
        u_stats.host_probes, u_stats.host_hits
    )
    assert (b_stats.switch_probes, b_stats.switch_hits) == (
        u_stats.switch_probes, u_stats.switch_hits
    )
    # Byte-identical, not approximately equal: both arms must charge the
    # exact same float costs in the exact same order.
    assert b_stats.elapsed_us == u_stats.elapsed_us
    assert b_trace == u_trace


class TestBatchedMappingEquivalence:
    @given(
        params=network_params,
        jitter=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, **_SETTINGS)
    def test_clean_runs_byte_identical(self, params, jitter, seed):
        """No faults: batched and pure per-probe maps agree to the byte."""
        try:
            arms = [
                _run_arm(
                    params, service_cls=c, drop=0.0, corrupt=0.0, jitter=jitter,
                    seed=seed, cut_at=None, cut_seed=0,
                )
                for c in _ARMS
            ]
        except TopologyError:
            return
        _assert_arms_identical(*arms)

    @given(
        params=network_params,
        drop=st.sampled_from([0.1, 0.5]),
        corrupt=st.sampled_from([0.0, 0.3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, **_SETTINGS)
    def test_fault_injection_keeps_rng_lockstep(
        self, params, drop, corrupt, seed
    ):
        """Drop/corrupt RNGs draw once per probe: identical draw order is
        only possible if batching submits exactly the same probes."""
        try:
            arms = [
                _run_arm(
                    params, service_cls=c, drop=drop, corrupt=corrupt, jitter=0.0,
                    seed=seed, cut_at=None, cut_seed=0,
                )
                for c in _ARMS
            ]
        except TopologyError:
            return
        _assert_arms_identical(*arms)

    @given(
        params=network_params,
        cut_at=st.integers(min_value=0, max_value=40),
        cut_seed=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, **_SETTINGS)
    def test_midrun_cable_cut_invalidates_both_arms_alike(
        self, params, cut_at, cut_seed, seed
    ):
        """A cable cut mid-map bumps the topology epoch and drops the trie
        (hints included); both arms must rebuild identically."""
        try:
            arms = [
                _run_arm(
                    params, service_cls=c, drop=0.0, corrupt=0.0, jitter=0.0,
                    seed=seed, cut_at=cut_at, cut_seed=cut_seed,
                )
                for c in _ARMS
            ]
        except TopologyError:
            return
        _assert_arms_identical(*arms)


_prefixes = st.lists(
    st.integers(min_value=-3, max_value=3).filter(bool), max_size=4
).map(tuple)
_sibling_groups = st.lists(
    st.integers(min_value=-3, max_value=3).filter(bool),
    min_size=1,
    max_size=6,
).map(tuple)

#: One evaluator-level step: a sibling batch, or a topology cut.
_batch_ops = st.one_of(
    st.tuples(st.just("batch"), st.tuples(_prefixes, _sibling_groups)),
    st.tuples(st.just("cut"), st.integers(min_value=0, max_value=10_000)),
)


class TestEvaluateBatchEquivalence:
    @given(
        params=network_params,
        plan=st.lists(_batch_ops, min_size=3, max_size=15),
    )
    @settings(max_examples=60, **_SETTINGS)
    def test_batches_match_per_probe_walks_through_cuts(self, params, plan):
        """A primed sibling group must equal N independent `probe_info`
        calls, including across invalidations triggered by topology
        mutation."""
        try:
            net = random_san(**params)
        except TopologyError:
            return
        h0 = sorted(net.hosts)[0]
        batched_ev = IncrementalPathEvaluator(net)
        plain_ev = IncrementalPathEvaluator(net)
        for op, payload in plan:
            if op == "cut":
                wires = net.wires
                if wires:
                    net.disconnect(random.Random(payload).choice(wires))
                continue
            prefix, group = payload
            batched_ev.warm_siblings(h0, prefix, group)
            got = [batched_ev.probe_info(h0, prefix + (t,)) for t in group]
            want = [plain_ev.probe_info(h0, prefix + (t,)) for t in group]
            assert got == want
        # Both evaluators walked the same probes, just in different access
        # patterns; the evaluation counters must agree even though the
        # hit/miss split legitimately differs.
        assert (
            batched_ev.stats.evaluations == plain_ev.stats.evaluations
        )
