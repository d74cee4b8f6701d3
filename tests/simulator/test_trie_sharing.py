"""A trie holds each wire half once, and a network holds one trie.

White-box pins on the evaluator behind a real mapping run: the trie's
nodes point at shared hop records instead of carrying their own traversal
tuples, and the cache counters of the run are the ones the pre-hop-table
evaluator produced. Every service on one network shares its trie, while
each service's counters count only its own walks.
"""

import enum
import gc
import types
import weakref
from dataclasses import replace

import pytest

from repro.core.mapper_protocol import create_mapper
from repro.simulator.path_eval import EvalCacheStats, _Trie
from repro.simulator.stack import build_service_stack
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import build_subcluster, build_three_tier_fat_tree
from tests.simulator.trie_view import trie_nodes as _trie_nodes


def _map_fat_tree_k4():
    net = build_three_tier_fat_tree(4)
    svc = build_service_stack(net, sorted(net.hosts)[0])
    create_mapper("berkeley", svc, radix=4, search_depth=6).map()
    return svc


def _map_subcluster_c():
    net = build_subcluster("C")
    h0 = sorted(net.hosts)[0]
    svc = build_service_stack(net, h0)
    depth = recommended_search_depth(net, h0)
    # The pinned counters below are the host-probe-first order's.
    create_mapper("berkeley", svc, search_depth=depth, host_first=True).map()
    return svc


@pytest.fixture(scope="module")
def fat_tree_svc():
    return _map_fat_tree_k4()


def test_traversals_exist_once_per_wire_half(fat_tree_svc):
    nodes = list(_trie_nodes(fat_tree_svc))
    assert len(nodes) == fat_tree_svc.eval_cache_stats.nodes
    hops = [n.hop for n in nodes if n.hop is not None]
    halves = {(hop.fwd.src, hop.fwd.dst) for hop in hops}
    objects = {id(tr) for hop in hops for tr in (hop.fwd, hop.rev)}
    assert len(halves) < len(hops)  # the run did share hops
    assert len(objects) <= 2 * len(halves)


def test_probes_sharing_a_prefix_share_its_traversal_objects(fat_tree_svc):
    ev, h0 = fat_tree_svc._evaluator, fat_tree_svc.mapper
    deep = max(
        (n for n in _trie_nodes(fat_tree_svc) if n.hop is not None),
        key=lambda n: n.depth,
    )
    assert deep.depth >= 3
    turns: list[int] = []
    while deep.parent is not None:
        turns.append(
            next(t for t, c in deep.parent.children.items() if c is deep)
        )
        deep = deep.parent
    turns.reverse()
    long = ev.probe_info(h0, tuple(turns)).traversals
    short = ev.probe_info(h0, tuple(turns[:-1])).traversals
    loop = ev.loopback_info(h0, tuple(turns[:-1])).traversals
    assert len(long) == len(short) + 1
    assert all(a is b for a, b in zip(short, long))
    assert all(a is b for a, b in zip(short, loop))


def _tracked_objects_of(root) -> int:
    """GC-tracked objects reachable from ``root``, not counting or entering
    classes, enum members, functions and modules (shared, not owned)."""
    shared = (type, enum.Enum, types.FunctionType, types.ModuleType)
    seen = {id(root)}
    stack = [root]
    tracked = 0
    while stack:
        obj = stack.pop()
        tracked += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, shared):
                seen.add(id(ref))
                stack.append(ref)
    return tracked


def test_a_trie_node_is_no_tracked_object():
    """The trie keeps its nodes in columns: however many nodes a map
    leaves, the trie owns a handful of objects the cycle collector tracks,
    and dropping it frees every node by reference counts alone."""
    svc = _map_fat_tree_k4()
    net, nodes = svc.net, svc.eval_cache_stats.nodes
    del svc  # the network is now the trie's one holder
    for _ in range(3):  # a hop row nests tuples three deep, and a
        gc.collect()  # collection may untrack just one level of them
    assert _tracked_objects_of(net.walk_trie) < 32 < nodes
    net.walk_trie = None
    assert gc.collect() == 0  # nothing was left for the collector


@pytest.mark.parametrize(
    "run, hits_misses_hinted_nodes",
    [
        # Every probe descends from its root; nothing is ever hinted.
        (_map_fat_tree_k4, (1229, 189, 0, 189)),
        (_map_subcluster_c, (3449, 469, 0, 469)),
    ],
)
def test_cache_counters_are_the_parent_commits(run, hits_misses_hinted_nodes):
    stats = run().eval_cache_stats
    assert (
        stats.hits, stats.misses, stats.hinted, stats.nodes
    ) == hits_misses_hinted_nodes


def _live_tries() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, _Trie))


def test_services_on_one_network_share_its_trie_and_count_their_own_walks():
    """The trie belongs to the network; the counters belong to the service.
    A second service on the network reads the first one's walks (a
    repeated map is all hits), and a cut is pruned by, and charged to, the
    service whose walk first sees it."""
    first = _map_subcluster_c()
    net, h0 = first.net, first.mapper
    cold = first.eval_cache_stats
    second = build_service_stack(net, h0)
    assert second._evaluator._roots is first._evaluator._roots
    assert second.eval_cache_stats == EvalCacheStats(nodes=cold.nodes)
    depth = recommended_search_depth(net, h0)
    create_mapper("berkeley", second, search_depth=depth, host_first=True).map()
    warm = second.eval_cache_stats
    assert second.stats.total_probes == first.stats.total_probes
    assert (warm.hits, warm.misses) == (cold.hits + cold.misses, 0)
    assert warm.nodes == cold.nodes
    assert first.eval_cache_stats == cold

    wire = next(w for w in net.wires if net.is_switch(w.a.node) and net.is_switch(w.b.node))
    net.disconnect(wire)
    third = build_service_stack(net, h0)
    third.probe_switch((5,))
    pruned = third.eval_cache_stats
    assert pruned.invalidations == 1 and 0 < pruned.nodes_dropped < cold.nodes
    assert pruned.nodes == cold.nodes - pruned.nodes_dropped + pruned.misses
    # The other services' own counters did not move; they read the same trie.
    assert second.eval_cache_stats == replace(warm, nodes=pruned.nodes)


def test_the_trie_is_freed_with_its_network():
    gc.collect()
    before = _live_tries()
    svc = _map_subcluster_c()
    assert _live_tries() == before + 1
    net = weakref.ref(svc.net)
    del svc
    gc.collect()
    assert net() is None
    assert _live_tries() == before
