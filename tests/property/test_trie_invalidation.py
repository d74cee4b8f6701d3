"""Trie invalidation property: warm answers equal cold answers.

The probe trie lives with its network, and a topology move prunes from it
every walk that read a changed wire end. This suite drives one long-lived
cached service through an arbitrary mutator sequence — cable cuts and
plugs, node removals, a failed cable swapped for the last one that failed,
probability changes, probes interleaved throughout so the trie is warm when
the mutations land —
then compares every query against a **freshly built** evaluator that walks
a copy of the final network cold (a copy: an evaluator on the network
itself would share the warm trie). If a prune ever kept a walk across a
changed wire end some query must disagree; the property forbids it for
every sequence hypothesis can dream up.

The prune count is part of the property: exactly one per topology-epoch
move a walk sees. A failed cable is a missing wire, so it is a topology
move like any cut; probability changes are not, and prune nothing.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.simulator.collision import CircuitModel
from repro.simulator.faults import FaultModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.generators import random_san
from repro.topology.model import Network, TopologyError
from tests.simulator.trie_view import trie_nodes as _trie_nodes

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

_probe_ops = st.one_of(
    st.tuples(st.just("host"), _turns),
    st.tuples(st.just("switch"), _turns),
    st.tuples(st.just("loopback"), _loop_turns),
)
_PROBE_KINDS = ("host", "switch", "loopback")
_ops = st.one_of(
    _probe_ops,
    st.tuples(st.just("cut"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("plug"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("unplug_node"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("dead"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("drop"), st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("corrupt"), st.sampled_from([0.0, 0.3])),
)

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _free_switch_ports(net: Network) -> list[tuple[str, int]]:
    return [
        (name, port)
        for name in sorted(net.switches)
        for port in net.free_ports(name)
    ]


def _apply(
    op, payload, svc: QuiescentProbeService, faults: FaultModel, failed: list
) -> None:
    net = svc.net
    if op == "host":
        svc.probe_host(payload)
        return
    if op == "switch":
        svc.probe_switch(payload)
        return
    if op == "loopback":
        svc.probe_loopback(payload)
        return
    rnd = random.Random(payload)
    if op == "cut":
        if net.wires:
            net.disconnect(rnd.choice(net.wires))
    elif op == "plug":
        free = _free_switch_ports(net)
        pairs = [
            (a, b) for a in free for b in free if a[0] != b[0] or a[1] != b[1]
        ]
        if pairs:
            (an, ap), (bn, bp) = rnd.choice(pairs)
            try:
                net.connect(an, ap, bn, bp)
            except TopologyError:
                pass
    elif op == "unplug_node":
        victims = [s for s in sorted(net.switches)]
        if victims:
            net.remove_node(rnd.choice(victims))
    elif op == "dead":
        # One cable fails and the last one to fail comes back on the same
        # two ends (the chaos applier's cut and heal), if both are free.
        if failed:
            a, b = failed.pop()
            if a.node in net and b.node in net and not (
                net.wire_at(a.node, a.port) or net.wire_at(b.node, b.port)
            ):
                net.connect(a.node, a.port, b.node, b.port)
        if net.wires:
            wire = rnd.choice(net.wires)
            net.disconnect(wire)
            failed.append((wire.a, wire.b))
    elif op == "drop":
        faults.set_drop_prob(payload)
    elif op == "corrupt":
        faults.set_corrupt_prob(payload)
    else:  # pragma: no cover - strategy restricts ops
        raise AssertionError(op)


def _reads(node, ends) -> bool:
    """Whether this node's step, or an ancestor's, read one of ``ends``."""
    while node is not None:
        if any(end in ends for end in node.dep):
            return True
        node = node.parent
    return False


def _same_answers(warm, cold, queries) -> None:
    for op, payload in queries:
        if op == "host":
            assert warm.probe_host(payload) == cold.probe_host(payload)
        elif op == "switch":
            assert warm.probe_switch(payload) == cold.probe_switch(payload)
        else:
            assert warm.probe_loopback(payload) == cold.probe_loopback(payload)


class TestFlushEqualsCold:
    @given(
        params=network_params,
        plan=st.lists(_ops, min_size=5, max_size=30),
        queries=st.lists(_probe_ops, min_size=5, max_size=15),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, **_SETTINGS)
    def test_warm_evaluator_matches_cold_rebuild(
        self, params, plan, queries, seed
    ):
        """After *any* mutator sequence — including cuts landing on a warm
        trie mid-run — the pruned evaluator answers every probe exactly as
        a cold evaluator over the final network does."""
        try:
            net = random_san(**params)
        except TopologyError:
            return
        mapper = sorted(net.hosts)[0]
        warm_faults = FaultModel(seed=seed)
        warm = QuiescentProbeService(
            net=net, mapper=mapper, collision=CircuitModel(), faults=warm_faults
        )
        # A probe that finds the topology epoch moved since the last probe
        # prunes the trie once, however many mutations moved it.
        epoch, moves, failed = net.topology_epoch, 0, []
        for op, payload in plan:
            if op in _PROBE_KINDS and net.topology_epoch != epoch:
                epoch, moves = net.topology_epoch, moves + 1
            _apply(op, payload, warm, warm_faults, failed)
        if mapper not in net.hosts:
            return  # an unplug_node cascade took the mapper host with it
        if net.topology_epoch != epoch:
            moves += 1  # seen by the first query

        # Quiesce the probabilistic knobs so the comparison is
        # deterministic, then rebuild cold over the *same* final state.
        warm_faults.set_drop_prob(0.0)
        warm_faults.set_corrupt_prob(0.0)
        cold = QuiescentProbeService(
            net=net.copy(), mapper=mapper, collision=CircuitModel(),
            faults=FaultModel(seed=seed),
        )
        _same_answers(warm, cold, queries)
        assert warm.eval_cache_stats.invalidations == moves

    @given(
        params=network_params,
        warmup=st.lists(_probe_ops, min_size=3, max_size=10),
        cut_seed=st.integers(min_value=0, max_value=10_000),
        queries=st.lists(_probe_ops, min_size=3, max_size=10),
    )
    @settings(max_examples=60, **_SETTINGS)
    def test_single_cut_prunes_once(self, params, warmup, cut_seed, queries):
        """A single cable cut on a warm trie drops, once, exactly the
        cached walks that read one of the cable's two ends, and the kept
        and rebuilt walks answer identically to a cold evaluator."""
        try:
            net = random_san(**params)
        except TopologyError:
            return
        mapper = sorted(net.hosts)[0]
        warm = QuiescentProbeService(
            net=net, mapper=mapper, collision=CircuitModel(), faults=FaultModel()
        )
        for op, payload in warmup:
            _apply(op, payload, warm, warm.faults, [])
        if not net.wires:
            return
        wire = random.Random(cut_seed).choice(net.wires)
        ends = {(wire.a.node, wire.a.port), (wire.b.node, wire.b.port)}
        doomed = sum(1 for node in _trie_nodes(warm) if _reads(node, ends))
        net.disconnect(wire)

        cold = QuiescentProbeService(
            net=net.copy(), mapper=mapper, collision=CircuitModel(), faults=FaultModel()
        )
        _same_answers(warm, cold, queries)
        after = warm.eval_cache_stats
        assert after.invalidations == 1
        assert after.nodes_dropped == doomed
