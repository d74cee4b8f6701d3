"""Differential suite: the core-only sweep, the derived leaf rows, the
plain-BFS root choice and the compiled in-trees answer exactly as the
every-node-a-state reference (``reference_paths.py``, the parent's code
verbatim) does — tie-breaks, dict insertion order and seeded draws included.

Fabrics: the 160 ``random`` fabrics the change was sized on (size 4 / 7 /
10 / 14 × 40 seeds, ``seed % 4`` cuts), hand-built ones for everything the
new code treats specially (a host–host cable, an unattached host, a
``utility=True`` host, a host labelled above its switch, a dual-homed host
that only a hand-made :class:`PhaseGraph` can express), and hypothesis
draws of ``seeded_fabric`` — parallel cables, loopback cables, pendant
switches, 0–3 cuts (islands) — decorated with any of those, rooted at any
switch, with and without the dominant-switch relabelling.

Seeded mutants that must die here, each with the first case that kills it
under ``pytest -x tests/routing/test_paths_reference.py`` (all nine were
run against this file; none survives):

- ``k`` over the DOWN states before the UP states (``paths.py``: sweep
  ``[*range(c, m), *range(c)]``) — lengths survive, tie-breaks do not:
  ``test_the_160_fabrics[random-7-seed24]``, ``node_path('r-h0', 'r-h2')``
  goes over ``r-s1`` where the reference goes over ``r-s5``.
- leaf test that ignores a second arc (``paths.py``: ``len(up_adj[i]) >=
  1``; or ``not down_adj[i]`` dropped) — ``test_dual_homed_host_is_core``,
  ``distance('h0', 's0')`` 3 for 1 and ``distance('h0', 'h1')`` 3 for 2.
  No wired fabric can show it (a host has one port), hence the hand-made
  phase graph.
- leaf test that ignores *which* arc it is (``paths.py``: a host with any
  one arc, up or down, is a leaf) — ``test_host_above_its_switch_is_core``,
  ``distance('h0', 's0')`` 3 where there is no compliant path.
- in-tree memo keyed by node instead of by state (``compile_routes.py``:
  ``done`` keyed ``names[state]``) — a chain that enters a switch still
  going UP and one already going DOWN leave it differently:
  ``test_the_160_fabrics[random-10-seed12]``, route ``r-h6 -> r-h7``.
- shared tail used across a multi-cable hop (``compile_routes.py``:
  ``_hop`` takes ``candidates[0]`` whatever their number) —
  ``test_the_160_fabrics[random-4-seed1]``, compile seed 0, route
  ``r-h0 -> r-h1``: the draw is gone.
- the draw made once per tail instead of once per route
  (``compile_routes.py``: ``_hop`` draws among the candidates itself) —
  ``test_the_160_fabrics[random-4-seed1]``, route ``r-h0 -> r-h2``.
- ``pick_root`` that forgets how many hosts hang off a switch
  (``updown.py``: ``count`` taken as 1), or that drops the total-distance
  tie-break — ``test_the_160_fabrics[random-4-seed7]``, ``r-s0`` for
  ``r-s1``.

``net.is_switch(...)`` in the leaf test is the one condition no case can
kill: a host hanging off a *host* that is core would be just as derivable.
It stays because "leaf" is defined, and ``leaf_switch`` is named, for a
host on a switch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.routing.compile_routes import channel_table, compile_route_tables
from repro.routing import paths as paths_module
from repro.routing.paths import all_pairs_updown_paths, build_phase_graph
from repro.routing.updown import UpDownOrientation, orient_updown
from repro.topology.builder import NetworkBuilder
from repro.topology.generators import build_named_topology
from repro.topology.model import Network, TopologyError
from tests.routing import reference_paths
from tests.routing.reference_paths import (
    reference_all_pairs_updown_paths,
    reference_pick_root,
    reference_route_tables,
)
from tests.routing.reference_views import distance, node_path, pick_root
from tests.routing.test_route_tables_golden import (
    COMPILE_SEEDS,
    host_host_island,
    unattached_host,
)
from tests.topology.test_analysis_reference import cut_switch_wires, seeded_fabric


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_root(net: Network) -> None:
    for ignore_utility in (True, False):
        assert _outcome(pick_root, net, ignore_utility=ignore_utility) == _outcome(
            reference_pick_root, net, ignore_utility=ignore_utility
        ), f"ignore_utility={ignore_utility}"


def assert_same_paths(net: Network, orientation: UpDownOrientation):
    """Equal distance and node path for *all* node pairs, equal
    ``node_paths`` order; returns the two path objects."""
    new = all_pairs_updown_paths(net, orientation)
    ref = reference_all_pairs_updown_paths(net, orientation)
    nodes = sorted(net.nodes)
    for src in nodes:
        for dst in nodes:
            assert distance(new, src, dst) == ref.distance(src, dst), (src, dst)
            assert node_path(new, src, dst) == ref.node_path(src, dst), (src, dst)
    hosts = sorted(net.hosts)
    for sources, targets in ((hosts, hosts), (nodes, nodes), (nodes[::-1], hosts)):
        assert list(new.node_paths(sources, targets)) == list(
            ref.node_paths(sources, targets)
        )
    return new, ref


def assert_same_tables(net: Network, new, ref) -> None:
    """Equal tables for both compile seeds: table order, route order, every
    route by value, and the same sharing of channel objects."""
    for seed in COMPILE_SEEDS:
        got = compile_route_tables(net, new, seed=seed)
        want = reference_route_tables(net, ref, seed=seed)
        assert list(got) == list(want)
        for host, table in got.items():
            assert list(table.routes.items()) == list(want[host].routes.items()), (
                seed,
                host,
            )
        routes = [r for table in got.values() for r in table.routes.values()]
        assert channel_table(routes) == channel_table(
            [r for table in want.values() for r in table.routes.values()]
        )
        held = [t for route in routes for t in route.traversals]
        assert len({id(t) for t in held}) == len(set(held))


def assert_equals_reference(net: Network, **orient_kwargs) -> None:
    assert_same_root(net)
    try:
        orientation = orient_updown(net, **orient_kwargs)
    except ValueError:
        return  # nothing to route; assert_same_root saw both sides refuse
    assert_same_tables(net, *assert_same_paths(net, orientation))


# ---------------------------------------------------------------------------
# the 160 fabrics the change was sized on
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "size,seed",
    [pytest.param(n, s, id=f"random-{n}-seed{s}") for n in (4, 7, 10, 14) for s in range(40)],
)
def test_the_160_fabrics(size, seed):
    net = build_named_topology("random", {"size": size, "seed": seed})
    assert_equals_reference(cut_switch_wires(net, seed, seed % 4))


# ---------------------------------------------------------------------------
# what the new code treats specially
# ---------------------------------------------------------------------------
def utility_host() -> Network:
    """A four-switch line; the utility host sits alone at one end, so
    ignoring it moves the root."""
    b = NetworkBuilder()
    b.switches("s0", "s1", "s2", "s3")
    b.host("util", utility=True)
    b.hosts("h0", "h1", "h2")
    b.attach("util", "s0")
    b.attach("h0", "s2")
    b.attach("h1", "s3")
    b.attach("h2", "s3")
    for x, y in (("s0", "s1"), ("s1", "s2"), ("s2", "s3")):
        b.link(x, y)
    return b.build()


def decorated(net: Network, *, host_host=False, unattached=False, utility=False):
    """``net`` plus any of: a host–host cable (its own island), a host
    plugged in nowhere, a ``utility=True`` host on the first switch with a
    free port."""
    if host_host:
        net.add_host("x-hh0")
        net.add_host("x-hh1")
        net.connect("x-hh0", 0, "x-hh1", 0)
    if unattached:
        net.add_host("x-lone")
    if utility:
        roomy = [s for s in sorted(net.switches) if net.free_ports(s)]
        if roomy:
            net.add_host("x-util", utility=True)
            net.connect("x-util", 0, roomy[0], net.free_ports(roomy[0])[0])
    return net


SPECIAL = {
    "host-host-island": host_host_island,
    "unattached-host": unattached_host,
    "utility-host": utility_host,
    "all-three-on-random-7": lambda: decorated(
        build_named_topology("random", {"size": 7, "seed": 2}),
        host_host=True,
        unattached=True,
        utility=True,
    ),
    "hosts-only": lambda: decorated(Network(), host_host=True, unattached=True),
}


@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_special_hosts(name):
    assert_equals_reference(SPECIAL[name]())


def test_host_above_its_switch_is_core():
    """An orientation handed in from outside may put a host above its
    switch: its one arc is then a *down* arc, and it must stay core."""
    net = utility_host()
    orientation = orient_updown(net)
    level, tiebreak = orientation.labels["s2"]
    orientation.labels["h0"] = (level - 1, tiebreak)
    assert not orientation.is_up("h0", "s2")
    new, ref = assert_same_paths(net, orientation)
    assert "h0" not in new.leaf_switch and "h1" in new.leaf_switch
    assert_same_tables(net, new, ref)


def test_dual_homed_host_is_core(monkeypatch):
    """No wired fabric has one (a host has one port), but the sweep works
    on whatever :func:`build_phase_graph` hands it, so one is doctored in:
    a host with a second arc — up to a second switch, or down to a switch
    below it — carries transit paths and is a state like any switch."""
    net = utility_host()
    orientation = orient_updown(net)
    for second, direction in (("s0", "up"), ("s3", "down")):
        graph = build_phase_graph(net, orientation)
        h0, other = graph.index["h0"], graph.index[second]
        if direction == "up":  # h0 -> second is up, second -> h0 is down
            graph.up_adj[h0].append(other)
            graph.down_adj[other].append(h0)
        else:
            graph.down_adj[h0].append(other)
            graph.up_adj[other].append(h0)
        # Both sweeps look the builder up in their own module at call time.
        for module in (paths_module, reference_paths):
            monkeypatch.setattr(
                module, "build_phase_graph", lambda net, orientation, g=graph: g
            )
        new, _ = assert_same_paths(net, orientation)
        assert "h0" not in new.leaf_switch
        assert "h0" in new.core


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: build_named_topology("now-full", {}), id="now-full"),
        pytest.param(
            lambda: cut_switch_wires(
                build_named_topology("random", {"size": 14, "seed": 5}), 5, 3
            ),
            id="random-14-three-cuts",
        ),
        pytest.param(lambda: SPECIAL["all-three-on-random-7"](), id="decorated"),
    ],
)
def test_int16_sweep_equals_int32_sweep(monkeypatch, build):
    """A sweep over few enough states runs in int16; forced into int32 it
    leaves the same distances (unreached ones included) and successors."""
    net = build()
    orientation = orient_updown(net)
    narrow = all_pairs_updown_paths(net, orientation)
    assert narrow.dist.min() == 0 and narrow.dist.max() == paths_module._INF
    monkeypatch.setattr(paths_module, "_INF16", 0)
    wide = all_pairs_updown_paths(net, orientation)
    assert narrow.dist.dtype == wide.dist.dtype == np.int32
    assert np.array_equal(narrow.dist, wide.dist)
    assert np.array_equal(narrow.succ, wide.succ)


# ---------------------------------------------------------------------------
# hypothesis: seeded fabrics, cut, decorated, rooted anywhere
# ---------------------------------------------------------------------------
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n_switches=st.integers(min_value=1, max_value=7),
    n_hosts=st.integers(min_value=2, max_value=6),
    extra_links=st.integers(min_value=0, max_value=4),
    pendants=st.integers(min_value=0, max_value=2),
    loopbacks=st.integers(min_value=0, max_value=2),
    n_cuts=st.integers(min_value=0, max_value=3),
    host_host=st.booleans(),
    unattached=st.booleans(),
    utility=st.booleans(),
    root_index=st.none() | st.integers(min_value=0, max_value=12),
    relabel_dominant=st.booleans(),
)
def test_equals_reference_on_drawn_fabrics(
    seed,
    n_switches,
    n_hosts,
    extra_links,
    pendants,
    loopbacks,
    n_cuts,
    host_host,
    unattached,
    utility,
    root_index,
    relabel_dominant,
):
    try:
        net = seeded_fabric(seed, n_switches, n_hosts, extra_links, pendants, loopbacks)
    except TopologyError:
        reject()  # density does not fit the radix: not one of the 150
    net = decorated(
        cut_switch_wires(net, seed, n_cuts),
        host_host=host_host,
        unattached=unattached,
        utility=utility,
    )
    switches = sorted(net.switches)
    root = None if root_index is None else switches[root_index % len(switches)]
    assert_equals_reference(net, root=root, relabel_dominant=relabel_dominant)
