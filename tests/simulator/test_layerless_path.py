"""The layer-less probe path answers, draws and accounts as the transaction.

On a stack with no layers ``probe_host`` / ``probe_switch`` skip the
transaction shell (no context, no evaluation callable, no record), and the
other three kinds take the transaction with an empty layer loop. A no-op
:class:`ProbeLayer` sends every probe through the hooks. Every fabric is
mapped twice by each of the six registry mappers, once each way, with
faults, jitter, a responder subset and either collision model: the probe
answers of all five kinds, the serialized map result, the Figure 6 ledger,
the evaluation-cache counters and both RNG streams must come out equal.

The call-count guard holds the straight line to its length: a warm
layer-less probe is a handful of Python calls (walk, answer, one fault
draw, the responder check), counted under ``sys.setprofile``.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.myricom import MyricomMapper
from repro.baselines.selfid import SelfIdMapper
from repro.core.infogain import InfoGainMapper
from repro.core.mapper import BerkeleyMapper
from repro.core.model_graph import ModelGraph
from repro.core.remapper import map_cycle
from repro.extensions.randomized import CouponMapper
from repro.extensions.spanning_tree import SpanningTreeMapper
from repro.service.serialize import map_result_to_dict
from repro.simulator.collision import CircuitModel, CutThroughModel
from repro.simulator.faults import FaultModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import ProbeLayer
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import build_full_now, build_three_tier_fat_tree, random_san
from repro.topology.model import TopologyError

_MAPPERS = (
    BerkeleyMapper,
    CouponMapper,
    InfoGainMapper,
    MyricomMapper,
    SelfIdMapper,
    SpanningTreeMapper,
)
_KINDS = ("probe_host", "probe_switch", "probe_loopback", "probe_host_any", "probe_switch_id")


def _logged(answers: list, kind: str, probe):
    def logged(turns):
        got = probe(turns)
        answers.append((kind, tuple(turns), got))
        return got

    return logged


def _map(mapper_cls, build, layers: tuple, conditions: dict, depth: int | None):
    """Map a fresh copy of the fabric (the walk trie lives on the network,
    so each side starts from an empty one) and return every observable."""
    net = build()
    hosts = sorted(net.hosts)
    host = hosts[0]
    silent = conditions["silent"]
    svc = QuiescentProbeService(
        net,
        host,
        collision=conditions["collision"](),
        responders=None if silent is None else frozenset(
            h for i, h in enumerate(hosts) if not silent >> i & 1
        ),
        faults=FaultModel(
            drop_prob=conditions["drop_prob"],
            corrupt_prob=conditions["corrupt_prob"],
            seed=conditions["seed"],
        ),
        jitter=conditions["jitter"],
        layers=layers,
        rng=random.Random(conditions["seed"]),
    )
    answers: list = []
    for kind in _KINDS:
        setattr(svc, kind, _logged(answers, kind, getattr(svc, kind)))
    if depth is None:
        depth = recommended_search_depth(net, host)
    # A faulty map may wander: bound the model graph's explorations.
    bound = {"max_explorations": 2000} if issubclass(mapper_cls, ModelGraph) else {}
    mapper = mapper_cls(svc, search_depth=depth, **bound)
    try:
        result: object = map_result_to_dict(mapper.map())
    except Exception as exc:  # a faulty map may fail; both sides alike
        result = repr(exc)
    return {
        "answers": answers,
        "map": result,
        "stats": svc.stats,
        "eval_cache": svc.eval_cache_stats,
        "fault_rng": svc.faults._rng.getstate(),
        "jitter_rng": svc._rng.getstate(),
    }


def assert_paths_agree(build, conditions: dict, depth: int | None = None) -> None:
    for mapper_cls in _MAPPERS:
        bare = _map(mapper_cls, build, (), conditions, depth)
        layered = _map(mapper_cls, build, (ProbeLayer(),), conditions, depth)
        assert bare["answers"], "the map sent no probe"
        for what in bare:
            assert bare[what] == layered[what], f"{mapper_cls.__name__}: {what} differs"


_fabrics = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=2, max_value=8),
        "n_hosts": st.integers(min_value=2, max_value=6),
        "extra_links": st.integers(min_value=0, max_value=3),
        "parallel_link_prob": st.sampled_from([0.3, 0.6]),
        "pendant_switches": st.integers(min_value=0, max_value=2),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)
_conditions = st.fixed_dictionaries(
    {
        "drop_prob": st.sampled_from([0.0, 0.05, 0.2]),
        "corrupt_prob": st.sampled_from([0.0, 0.05]),
        "jitter": st.sampled_from([0.0, 0.1]),
        # The hosts running no daemon, a bit mask over the sorted hosts
        # (None: no responder set at all).
        "silent": st.none() | st.integers(min_value=0, max_value=63),
        "collision": st.sampled_from([CircuitModel, CutThroughModel]),
        "seed": st.integers(min_value=0, max_value=1000),
    }
)


@given(params=_fabrics, conditions=_conditions)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_fabrics_probe_alike_with_and_without_a_layer(params, conditions):
    try:
        random_san(**params)
    except TopologyError:
        return
    assert_paths_agree(lambda: random_san(**params), conditions)


_NAMED_CONDITIONS = [
    # Every host answers; circuit collisions; no faults or jitter.
    dict(drop_prob=0.0, corrupt_prob=0.0, jitter=0.0, silent=None,
         collision=CircuitModel, seed=0),
    # Faults of both kinds, jitter, a responder subset, cut-through.
    dict(drop_prob=0.1, corrupt_prob=0.05, jitter=0.2, silent=0b1011_0100,
         collision=CutThroughModel, seed=3),
]


@pytest.mark.parametrize("conditions", _NAMED_CONDITIONS, ids=["clean", "faulty"])
@pytest.mark.parametrize(
    "build, depth",
    [(build_full_now, None), (lambda: build_three_tier_fat_tree(4), 6)],
    ids=["now", "fattree4"],
)
def test_named_fabrics_probe_alike_with_and_without_a_layer(build, depth, conditions):
    assert_paths_agree(build, conditions, depth)


#: Each registry mapper's Figure 6 ledger on the full NOW, clean, at the
#: proven depth: (host probes, host hits, switch probes, switch hits).
#: Which kinds a service answers, and how, moves none of them.
_NOW_PROBES = {
    "berkeley": (816, 289, 1343, 527),
    "berkeley-infogain": (658, 321, 1142, 484),
    "coupon": (860, 313, 1344, 524),
    "myricom": (411, 99, 18359, 255),
    "selfid": (263, 99, 457, 148),
    "spanning-tree": (932, 256, 737, 352),
}


@pytest.mark.parametrize("name", sorted(_NOW_PROBES))
def test_full_now_probe_counts_are_pinned(name):
    net = build_full_now()
    result, _ = map_cycle(net, sorted(net.hosts)[0], mapper=name)
    s = result.stats
    assert (s.host_probes, s.host_hits, s.switch_probes, s.switch_hits) == _NOW_PROBES[name]


def _python_calls(fn, *args) -> tuple[object, int]:
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        got = fn(*args)
    finally:
        sys.setprofile(None)
    return got, calls


#: Python-level calls one warm layer-less probe may make. Through the
#: transaction shell (the memo's own call, ``_transact``, an evaluation
#: callable, the ``ok`` property) a hit took 12 either way.
_CALL_BUDGET = 7


@pytest.mark.parametrize(
    "last, sibling, switch_hit, host",
    [
        # The sibling's loopback comes home: one fault draw.
        ((-2, -1), (-2, 1), True, None),
        # The sibling lands on a host: a fault draw and the responder check.
        ((-2, 1, 2), (-2, 1, 3), False, "clos-n0003"),
    ],
    ids=["switch-hit", "host-hit"],
)
def test_a_warm_layerless_probe_pair_is_a_few_python_calls(last, sibling, switch_hit, host):
    net = build_three_tier_fat_tree(4)
    svc = QuiescentProbeService(net, sorted(net.hosts)[0])
    # Warm the trie on both strings and every hit cost, then walk ``last``
    # so the sibling takes one step from the node one turn short.
    for turns in (sibling, last):
        svc.probe_switch(turns)
        svc.probe_host(turns)
    svc.probe_switch(last)
    turns = tuple(list(sibling))  # a fresh tuple, as the mapper builds one
    got, switch_calls = _python_calls(svc.probe_switch, turns)
    assert got is switch_hit
    got, host_calls = _python_calls(svc.probe_host, turns)
    assert got == host
    assert switch_calls <= _CALL_BUDGET, f"probe_switch made {switch_calls} calls"
    assert host_calls <= _CALL_BUDGET, f"probe_host made {host_calls} calls"
