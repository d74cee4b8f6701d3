"""The model graph holds only live vertices.

A merge rewrites every wire-end that named the absorbed vertex and a
deletion drops them, so no code applies the union-find to a wire-end: a
live vertex's ``nbrs`` names only live vertices. These tests hold that
invariant (and the exact ``multi`` counter) after every drain of the
mergelist and after PRUNE, for three mappers on random fabrics and for
merged partial views; check that the contradiction the old self-merge
guard caught still raises; and count the vertex objects alive while a
fat tree is mapped: exactly the live ones, since a merged-away twin is
freed at its merge.
"""

from __future__ import annotations

import gc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.infogain import InfoGainMapper
from repro.core.mapper import BerkeleyMapper
from repro.core.model_graph import KIND_HOST, KIND_SWITCH, MergedVertex, ModelGraph
from repro.core.relative import MappingError
from repro.extensions import parallel_maps
from repro.extensions.parallel_maps import MergeConflict, map_local_region
from repro.extensions.randomized import CouponMapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import build_service_stack
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import build_three_tier_fat_tree, random_san
from repro.topology.model import Network, TopologyError


def assert_only_live(graph: ModelGraph) -> None:
    """Every wire-end of every live vertex names a live vertex that holds
    the wire's other end, no index holds a wire to itself, and ``multi``
    counts the indices holding two or more ends.

    The in-place twin merge leans on the middle two: it drops the twin's
    one end from its neighbour's set and writes nothing else, which is
    exact only while each end has its back-reference."""
    live = graph._live
    for v in live.values():
        for i, ends in v.nbrs.items():
            assert ends
            for w, wi in ends:
                assert live.get(w.vid) is w, f"{v.vid} names {w.vid}, not live"
                assert (v, i) in w.nbrs.get(wi, ()), f"{w.vid}:{wi} lacks {v.vid}:{i}"
                assert (w, wi) != (v, i), f"{v.vid}:{i} is wired to itself"
        assert v.multi == sum(len(ends) > 1 for ends in v.nbrs.values())


class _Checked:
    """Check the invariant wherever the graph settles: after each
    vertex's deductions (in-place twin merges included) and after every
    drain and PRUNE."""

    def _deduce_at(self, v) -> None:
        super()._deduce_at(v)  # type: ignore[misc]
        assert_only_live(self)  # type: ignore[arg-type]

    def _drain_mergelist(self) -> None:
        super()._drain_mergelist()  # type: ignore[misc]
        assert_only_live(self)  # type: ignore[arg-type]

    def _prune(self) -> None:
        super()._prune()  # type: ignore[misc]
        assert_only_live(self)  # type: ignore[arg-type]


class _CheckedBerkeley(_Checked, BerkeleyMapper):
    pass


class _CheckedInfoGain(_Checked, InfoGainMapper):
    pass


class _CheckedCoupon(_Checked, CouponMapper):
    pass


class _CheckedGraph(_Checked, ModelGraph):
    pass


_MAPPERS = [_CheckedBerkeley, _CheckedInfoGain, _CheckedCoupon]

_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=2, max_value=7),
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


@pytest.mark.parametrize("mapper_cls", _MAPPERS, ids=lambda c: c.__name__)
@given(params=_params)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_mapper_keeps_only_live_vertices_in_nbrs(mapper_cls, params):
    net = _fabric(params)
    if net is None:
        return
    host = sorted(net.hosts)[0]
    svc = QuiescentProbeService(net, host)
    mapper = mapper_cls(
        svc,
        search_depth=recommended_search_depth(net, host),
        host_first=False,
        max_explorations=4000,
    )
    mapper.map()


@given(params=_params, subset=st.integers(min_value=1, max_value=63))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_merged_views_keep_only_live_vertices_in_nbrs(params, subset):
    net = _fabric(params)
    if net is None:
        return
    hosts = sorted(net.hosts)
    mappers = [h for i, h in enumerate(hosts) if subset >> i & 1] or hosts[:1]
    views = [map_local_region(net, h, local_depth=3) for h in mappers]
    with mock.patch.object(parallel_maps, "ModelGraph", _CheckedGraph):
        try:
            parallel_maps.merge_partial_maps(views)
        except MergeConflict:
            pass


def test_a_port_wired_to_two_ports_of_one_node_still_raises():
    """Two twins hang off one port of ``w`` at different indices; their
    shared host merges them, and the merged vertex's index 0 then leads to
    two ports of ``w``: no physical switch is wired so."""
    graph = _CheckedGraph(radix=8)
    w = graph._new_vertex(KIND_SWITCH, ())
    twins = [graph._new_vertex(KIND_SWITCH, (i,)) for i in (1, 2)]
    for port, twin in zip((1, 2), twins):
        graph._link(twin, 0, w, port)
        host = graph._new_vertex(KIND_HOST, (9,), host_name="h")
        graph._link(twin, 3, host, 0)
        graph._register_host(host)
    with pytest.raises(MappingError, match="two different ports of the same node"):
        graph._drain_mergelist()


class _Counted(BerkeleyMapper):
    """Counts the vertex objects alive at every tenth exploration."""

    def _snapshot(self, final: bool = False) -> None:
        super()._snapshot(final)
        if final or self._explorations % 10 == 0:
            alive = {id(o) for o in gc.get_objects() if type(o) is MergedVertex}
            self.alive.append((alive - self.before, {id(v) for v in self._live.values()}))


def test_a_merged_away_twin_is_freed_at_its_merge():
    """With the cycle collector off, the vertex objects alive while a
    fat tree is mapped are exactly the graph's live ones: no frontier,
    mergelist or alias keeps a merged-away twin."""
    net = build_three_tier_fat_tree(4)
    mapper = _Counted(
        build_service_stack(net, net.hosts[0]), search_depth=6, radix=4, host_first=False
    )
    mapper.alive = []
    gc.collect()
    gc.disable()
    try:
        mapper.before = {id(o) for o in gc.get_objects() if type(o) is MergedVertex}
        result = mapper.map()
    finally:
        gc.enable()
    assert result.merges == 119 and len(mapper.alive) == 6
    for alive, live in mapper.alive:
        assert alive == live
