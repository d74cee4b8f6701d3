"""A trie generation holds each wire half once.

White-box pins on the evaluator behind a real mapping run: the trie's
nodes point at shared hop records instead of carrying their own traversal
tuples, and the cache counters of the run are the ones the pre-hop-table
evaluator produced (captured at the parent commit, before any edit).
"""

import pytest

from repro.core.mapper_protocol import create_mapper
from repro.simulator.stack import build_service_stack
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import build_subcluster, build_three_tier_fat_tree


def _map_fat_tree_k4():
    net = build_three_tier_fat_tree(4)
    svc = build_service_stack(net, sorted(net.hosts)[0])
    create_mapper("berkeley", svc, radix=4, search_depth=6, host_first=False).map()
    return svc


def _map_subcluster_c():
    net = build_subcluster("C")
    h0 = sorted(net.hosts)[0]
    svc = build_service_stack(net, h0)
    create_mapper(
        "berkeley", svc, search_depth=recommended_search_depth(net, h0)
    ).map()
    return svc


def _trie_nodes(svc):
    stack = list(svc._evaluator._roots.values())
    while stack:
        node = stack.pop()
        yield node
        stack.extend((node.children or {}).values())


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


def test_a_leaf_owns_no_children_dict(fat_tree_svc):
    nodes = list(_trie_nodes(fat_tree_svc))
    leaves = [n for n in nodes if not n.children]
    assert len(leaves) > len(nodes) // 2
    assert all(n.children is None for n in leaves)


@pytest.mark.parametrize(
    "run, hits_misses_hinted_nodes",
    [
        (_map_fat_tree_k4, (1450, 189, 264, 189)),
        (_map_subcluster_c, (3615, 469, 845, 469)),
    ],
)
def test_cache_counters_are_the_parent_commits(run, hits_misses_hinted_nodes):
    stats = run().eval_cache_stats
    assert (
        stats.hits, stats.misses, stats.hinted, stats.nodes
    ) == hits_misses_hinted_nodes
