"""The in-place twin merge and the resuming scan change no observable.

Every fabric is mapped twice per mapper: once by the production class,
once with :class:`~tests.core.reference_drain.ReferenceDrain` mixed in
ahead of it (rescan from the first index, sorted pick, every merge
through ``_merge``). The two runs must write the same ``_parent``
sequence (vertex creation, merges and path compression, in order),
append the same mergelist sequence, serialize to the same map result,
and leave the same phase profile under a fake clock: the in-place merge
keeps one ``merge`` row call per merge.
The partial-view merge (:func:`merge_partial_maps`) is held the same way.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.infogain import InfoGainMapper
from repro.core.instrumentation import PhaseProfiler
from repro.core.mapper import BerkeleyMapper
from repro.core.model_graph import ModelGraph
from repro.extensions import parallel_maps
from repro.extensions.parallel_maps import MergeConflict, map_local_region
from repro.extensions.randomized import CouponMapper
from repro.service.serialize import map_result_to_dict
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import build_full_now, build_three_tier_fat_tree, random_san
from repro.topology.model import Network, TopologyError
from repro.topology.serialize import network_to_dict
from tests.core.reference_drain import MergeLog, ParentLog, ReferenceDrain
from tests.core.test_phase_profiler import FakeClock

_MAPPERS = (BerkeleyMapper, CouponMapper, InfoGainMapper)
_REFERENCE = {
    cls: type(f"Reference{cls.__name__}", (ReferenceDrain, cls), {})
    for cls in _MAPPERS
}


def _run(mapper_cls, net: Network, host: str, depth: int):
    prof = PhaseProfiler(clock=FakeClock())
    mapper = mapper_cls(
        QuiescentProbeService(net, host),
        search_depth=depth,
        radix=net.default_radix,
        max_explorations=4000,
        profiler=prof,
    )
    mapper._parent, mapper._mergelist = ParentLog(), MergeLog()
    result = mapper.map()
    return (
        mapper._parent.writes,
        mapper._mergelist.appended,
        map_result_to_dict(result),
        prof.snapshot().phases,
    )


def assert_same_as_reference(net: Network, depth: int | None = None) -> None:
    host = sorted(net.hosts)[0]
    if depth is None:
        depth = recommended_search_depth(net, host)
    for cls in _MAPPERS:
        got = _run(cls, net, host, depth)
        want = _run(_REFERENCE[cls], net, host, depth)
        for what, a, b in zip(("writes", "mergelist", "map", "profile"), got, want):
            assert a == b, f"{cls.__name__}: {what} differs"


def _merged_views(graph_cls, views) -> tuple[list, list, list | str]:
    graphs: list[ModelGraph] = []

    class Logged(graph_cls):
        def __init__(self, **kwargs) -> None:
            super().__init__(**kwargs)
            self._parent, self._mergelist = ParentLog(), MergeLog()
            graphs.append(self)

    with mock.patch.object(parallel_maps, "ModelGraph", Logged):
        try:
            out: list | str = [
                network_to_dict(n) for n in parallel_maps.merge_partial_maps(views)
            ]
        except MergeConflict as exc:
            out = str(exc)
    return graphs[0]._parent.writes, graphs[0]._mergelist.appended, out


_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=2, max_value=9),
        "n_hosts": st.integers(min_value=2, max_value=6),
        "extra_links": st.integers(min_value=0, max_value=3),
        "parallel_link_prob": st.sampled_from([0.3, 0.6]),
        "pendant_switches": st.integers(min_value=0, max_value=2),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


def _fabric(params: dict) -> Network | None:
    try:
        return random_san(**params)
    except TopologyError:
        return None


@given(params=_params)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_fabrics_map_as_the_reference_drain_does(params):
    net = _fabric(params)
    if net is not None:
        assert_same_as_reference(net)


@given(params=_params, subset=st.integers(min_value=1, max_value=63))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_merged_views_merge_as_the_reference_drain_does(params, subset):
    net = _fabric(params)
    if net is None:
        return
    hosts = sorted(net.hosts)
    mappers = [h for i, h in enumerate(hosts) if subset >> i & 1] or hosts[:1]
    views = [map_local_region(net, h, local_depth=3) for h in mappers]
    reference = type("ReferenceGraph", (ReferenceDrain, ModelGraph), {})
    assert _merged_views(ModelGraph, views) == _merged_views(reference, views)


@pytest.mark.parametrize(
    "build, depth",
    [(build_full_now, None), (lambda: build_three_tier_fat_tree(4), 6)]
    + [
        # Parallel links and pendant switches leave three or more ends on
        # one index, and a twin merge that leaves both ``v`` and ``keep``
        # with a multi-end index: the cases where resuming the scan and
        # the order of the mergelist appends can show.
        (lambda seed=seed: random_san(
            n_switches=7, n_hosts=4, extra_links=3, parallel_link_prob=0.6,
            pendant_switches=2, seed=seed,
        ), None)
        for seed in (9, 23, 36)
    ],
    ids=["now", "fattree4", "random9", "random23", "random36"],
)
def test_named_fabrics_map_as_the_reference_drain_does(build, depth):
    assert_same_as_reference(build(), depth)
