"""Differential suite: merging on the model graph ≡ the old accumulator.

``merge_partial_maps`` feeds partial views to the mapper's own deduction
engine (:class:`repro.core.model_graph.ModelGraph`); ``reference_merge`` is
the union-find-with-offsets it replaced, kept verbatim as the oracle. They
are held together on honest local views of random fabrics — parallel
cables, a pendant switch, a cable looping one switch back to itself — for
every mapper subset, local depth and view order hypothesis finds, and again
with one view made to lie. Three properties the accumulator was never
tested for ride along: idempotence, host metadata, island order.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.extensions.parallel_maps import (
    MergeConflict,
    PartialMap,
    map_local_region,
    merge_partial_maps,
    parallel_mapping_study,
)
from repro.topology.analysis import core_network, recommended_search_depth
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import random_san
from repro.topology.isomorphism import match_networks
from repro.topology.model import Network, TopologyError
from tests.extensions.reference_merge import reference_merge

_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=2, max_value=9),
        "n_hosts": st.integers(min_value=2, max_value=8),
        "extra_links": st.integers(min_value=0, max_value=4),
        "parallel_link_prob": st.just(0.4),
        "pendant_switches": st.integers(min_value=0, max_value=1),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)
#: Which hosts map (bit i set -> the i-th host in sorted order does).
_subset = st.integers(min_value=1, max_value=2**8 - 1)
_pick = st.integers(min_value=0, max_value=63)


def _fabric(params) -> Network:
    """``random_san`` plus one cable from a switch back to itself."""
    net = random_san(**params)
    for switch in sorted(net.switches):
        free = net.free_ports(switch)
        if len(free) >= 2:
            net.connect(switch, free[0], switch, free[1])
            break
    return net


def _views(net: Network, subset: int, depth_pick: int, order_seed: int):
    """Honest local views: a host subset, one local depth between 2 and
    the proven one, in shuffled order."""
    hosts = sorted(net.hosts)
    mappers = [h for i, h in enumerate(hosts) if subset >> i & 1] or hosts[:1]
    proven = max(2, recommended_search_depth(net, mappers[0]))
    depth = 2 + depth_pick % (proven - 1)
    views = [map_local_region(net, h, local_depth=depth) for h in mappers]
    random.Random(order_seed).shuffle(views)
    return views


def _view(net: Network) -> PartialMap:
    return PartialMap(
        owner=sorted(net.hosts)[0], network=net, probes=0, elapsed_ms=0.0
    )


def _outcome(merge, views):
    try:
        return merge(views)
    except MergeConflict:
        return None


def _assert_same_islands(got, want) -> None:
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):  # both in first-view order
        assert mine.default_radix == theirs.default_radix
        assert match_networks(mine, theirs)


def _move_a_host(net: Network, pick: int) -> Network | None:
    """The view with one host re-plugged into another port of its switch."""
    lie = net.copy()
    attached = [h for h in sorted(lie.hosts) if lie.host_attachment(h)]
    if not attached:
        return None
    host = attached[pick % len(attached)]
    at = lie.host_attachment(host)
    free = lie.free_ports(at.node)
    if not free:
        return None
    lie.disconnect(lie.wire_at(host, 0))
    lie.connect(host, 0, at.node, free[pick % len(free)])
    return lie


def _swap_a_host_for_a_switch(net: Network, pick: int) -> Network | None:
    """The view with one host link replaced by a link to a new switch
    (which carries a host of its own, so PRUNE would have kept it)."""
    lie = net.copy()
    attached = [h for h in sorted(lie.hosts) if lie.host_attachment(h)]
    if not attached:
        return None
    host = attached[pick % len(attached)]
    at = lie.host_attachment(host)
    lie.remove_node(host)
    lie.add_switch("intruder")
    lie.add_host("intruder-host")
    lie.connect(at.node, at.port, "intruder", 0)
    lie.connect("intruder-host", 0, "intruder", 1)
    return lie


@given(params=_params, subset=_subset, depth_pick=_pick, order_seed=_pick)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_honest_views_merge_as_the_accumulator_merged_them(
    params, subset, depth_pick, order_seed
):
    try:
        net = _fabric(params)
    except TopologyError:
        return  # density does not fit the radix
    views = _views(net, subset, depth_pick, order_seed)
    _assert_same_islands(merge_partial_maps(views), reference_merge(views))


@given(
    params=_params,
    subset=_subset,
    depth_pick=_pick,
    order_seed=_pick,
    victim=_pick,
    pick=_pick,
    corrupt=st.sampled_from([_move_a_host, _swap_a_host_for_a_switch]),
)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_a_lying_view_is_judged_as_the_accumulator_judged_it(
    params, subset, depth_pick, order_seed, victim, pick, corrupt
):
    try:
        net = _fabric(params)
    except TopologyError:
        return
    views = _views(net, subset, depth_pick, order_seed)
    victim %= len(views)
    lie = corrupt(views[victim].network, pick)
    if lie is None:
        return  # nothing to corrupt in that view
    views[victim] = _view(lie)
    got = _outcome(merge_partial_maps, views)
    want = _outcome(reference_merge, views)
    # A lie is either caught by both or consistent with some network
    # (switches are anonymous), and then both must find the same one.
    assert (got is None) == (want is None)
    if got is not None:
        _assert_same_islands(got, want)


@pytest.mark.parametrize("seed", range(6))
def test_full_depth_views_merge_to_the_core(seed):
    """Idempotence: k complete maps of one fabric are one map of it."""
    net = _fabric(
        dict(
            n_switches=6,
            n_hosts=6,
            extra_links=3,
            parallel_link_prob=0.4,
            pendant_switches=1,
            seed=seed,
        )
    )
    views = [
        map_local_region(
            net,
            host,
            local_depth=recommended_search_depth(net, host),
            max_explorations=None,
        )
        for host in sorted(net.hosts)[::2]
    ]
    (merged,) = merge_partial_maps(views)
    assert match_networks(merged, core_network(net))


def _region(switch: str, *hosts: str, meta: dict | None = None) -> PartialMap:
    b = NetworkBuilder()
    b.switch(switch)
    for port, host in enumerate(hosts):
        b.host(host, **(meta or {}))
        b.attach(host, switch, port=port)
    return _view(b.build())


def test_host_meta_survives_the_merge():
    """The first view to name a host decides its metadata."""
    views = [
        _region("x", "h0", "h1", meta={"rack": 3}),
        _region("y", "h1", "h2", meta={"rack": 9}),
    ]
    (merged,) = merge_partial_maps(views)
    assert {h: dict(merged.meta(h)) for h in sorted(merged.hosts)} == {
        "h0": {"rack": 3},
        "h1": {"rack": 3},
        "h2": {"rack": 9},
    }


def test_islands_come_back_in_first_view_order():
    east = _region("e", "h0", "h1")
    west = _region("w", "h8", "h9")
    more_east = _region("e2", "h1", "h2")
    islands = merge_partial_maps([east, west, more_east])
    assert [sorted(i.hosts) for i in islands] == [
        ["h0", "h1", "h2"],
        ["h8", "h9"],
    ]
    islands = merge_partial_maps([west, more_east, east])
    assert [sorted(i.hosts) for i in islands] == [
        ["h8", "h9"],
        ["h0", "h1", "h2"],
    ]


def test_a_study_needs_a_mapper(ring_net):
    with pytest.raises(ValueError, match="need at least one mapper host"):
        parallel_mapping_study(ring_net, [], local_depth=3)
