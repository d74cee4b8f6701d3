"""Differential suite: the shared-pass ``D`` / ``F`` / ``Q`` equal the
networkx reference on every node, for several mapper hosts.

The exploration depth ``Q + D + 1`` is what the mapper is proven correct
at, so "exact" is checked against the original min-cost-flow formulation
(``reference_analysis.py``), not sampled.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.oracles import effective_network
from repro.simulator.faults import FaultModel
from repro.topology.analysis import (
    bridges,
    core_decomposition,
    core_network,
    recommended_search_depth,
    separated_set,
)
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import (
    build_full_now,
    build_subcluster,
    build_three_tier_fat_tree,
    random_san,
)
from repro.topology.model import Network, TopologyError
from tests.routing.test_route_tables_golden import FABRICS as GOLDEN_FABRICS
from tests.topology.reference_analysis import (
    reference_diameter,
    reference_effective_network,
    reference_q_value,
    reference_separated_set,
)
from tests.topology.reference_queries import diameter, q_max, q_value


def assert_matches_reference(net: Network, h0: str) -> None:
    """``core_decomposition(net, h0)`` == the reference on ``h0``'s component."""
    part = effective_network(net, FaultModel(), h0)
    f = reference_separated_set(part)
    q_values = {}
    for v in part.nodes:
        q = reference_q_value(part, h0, v)
        assert q_value(net, h0, v) == q, v
        if q is not None and v not in f:
            q_values[v] = q
    got = core_decomposition(net, h0)
    assert got.h0 == h0
    assert got.diameter == reference_diameter(part)
    assert got.f_set == f
    assert got.q_values == q_values
    assert got.q == max(q_values.values(), default=0) == q_max(net, h0)
    if part.n_hosts >= 2 and part.n_switches >= 1:
        assert recommended_search_depth(net, h0) == got.q + got.diameter + 1
    else:
        assert recommended_search_depth(net, h0) == 2


def seeded_fabric(seed: int, n_switches: int, n_hosts: int, extra_links: int,
                  pendants: int, loopbacks: int) -> Network:
    """A random connected fabric with parallel wires, loopback cables and
    host-free regions behind switch-bridges (single switches, and a
    triangle whose internal cycle must still land in ``F`` whole)."""
    net = random_san(
        n_switches=n_switches,
        n_hosts=n_hosts,
        extra_links=extra_links,
        parallel_link_prob=0.5,
        pendant_switches=pendants,
        seed=seed,
    )
    rng = random.Random(seed)
    if pendants:
        anchor = f"r-f{rng.randrange(pendants)}"
        net.add_switch("tri-a")
        net.add_switch("tri-b")
        for u, w in ((anchor, "tri-a"), ("tri-a", "tri-b"), ("tri-b", anchor)):
            net.connect(u, net.free_ports(u)[0], w, net.free_ports(w)[0])
    for _ in range(loopbacks):
        roomy = [s for s in net.switches if len(net.free_ports(s)) >= 2]
        if roomy:
            s = rng.choice(roomy)
            p, q = net.free_ports(s)[:2]
            net.connect(s, p, s, q)
    return net


def add_odd_hosts(
    net: Network, seed: int, crowd: int, star: int, pair: bool, lone: bool
) -> Network:
    """Put hosts that are not leaves, and leaves in unusual places, beside
    the fabric's own: a switch with ``crowd`` leaves cabled into the fabric
    (an island when no fabric port is free), a switch whose only
    neighbours are ``star`` hosts, a host–host cable and an unattached
    host. Each island's hosts are mapper hosts of their own component."""
    rng = random.Random(seed)
    if crowd:
        net.add_switch("crowd")
        for i in range(crowd):
            net.connect(net.add_host(f"crowd-h{i}"), 0, "crowd", i)
        roomy = [s for s in net.switches if s != "crowd" and net.free_ports(s)]
        if roomy:
            s = rng.choice(sorted(roomy))
            net.connect("crowd", crowd, s, net.free_ports(s)[0])
    if star:
        net.add_switch("star")
        for i in range(star):
            net.connect(net.add_host(f"star-h{i}"), 0, "star", 2 * i + 1)
    if pair:
        net.connect(net.add_host("pair-a"), 0, net.add_host("pair-b"), 0)
    if lone:
        net.add_host("lone")
    return net


def cut_switch_wires(net: Network, seed: int, n_cuts: int) -> Network:
    """Disconnect up to ``n_cuts`` seeded switch-to-switch wires (may partition)."""
    rng = random.Random(seed)
    trunk = sorted(
        (
            w
            for w in net.wires
            if net.is_switch(w.a.node) and net.is_switch(w.b.node)
        ),
        key=lambda w: w.key,
    )
    for wire in rng.sample(trunk, min(n_cuts, len(trunk))):
        net.disconnect(wire)
    return net


class TestRandomFabrics:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_switches=st.integers(min_value=1, max_value=7),
        n_hosts=st.integers(min_value=2, max_value=5),
        extra_links=st.integers(min_value=0, max_value=4),
        pendants=st.integers(min_value=0, max_value=2),
        loopbacks=st.integers(min_value=0, max_value=2),
        n_cuts=st.integers(min_value=0, max_value=2),
        crowd=st.sampled_from([0, 4]),
        star=st.integers(min_value=0, max_value=3),
        pair=st.booleans(),
        lone=st.booleans(),
    )
    def test_equals_reference_for_every_mapper_host(
        self, seed, n_switches, n_hosts, extra_links, pendants, loopbacks, n_cuts,
        crowd, star, pair, lone,
    ):
        """Leaf hosts (read off their switch) beside every other kind of
        host (on the general path), each also the mapper."""
        try:
            net = seeded_fabric(
                seed, n_switches, n_hosts, extra_links, pendants, loopbacks
            )
        except TopologyError:
            return  # density does not fit the radix
        cut_switch_wires(net, seed, n_cuts)
        add_odd_hosts(net, seed, crowd, star, pair, lone)
        for h0 in net.hosts:
            assert_matches_reference(net, h0)
        if net.is_connected():
            assert separated_set(net) == reference_separated_set(net)
            assert diameter(net) == reference_diameter(net)


class TestNamedFabrics:
    @pytest.mark.parametrize("seed", range(3))
    def test_multi_cut_full_now(self, seed):
        net = cut_switch_wires(build_full_now(), seed, 6)
        assert_matches_reference(net, sorted(net.hosts)[0])

    @pytest.mark.parametrize("name", "ABC")
    def test_multi_cut_subcluster(self, name):
        net = cut_switch_wires(build_subcluster(name), ord(name), 4)
        hosts = sorted(net.hosts)
        for h0 in (hosts[0], hosts[len(hosts) // 2], hosts[-1]):
            assert_matches_reference(net, h0)

    def test_fat_tree_k4(self):
        net = build_three_tier_fat_tree(4)
        hosts = sorted(net.hosts)
        for h0 in (hosts[0], hosts[-1]):
            assert_matches_reference(net, h0)

    def test_partitioned_fabric_uses_the_mapper_side(self):
        net = build_subcluster("C")
        for wire in list(net.wires_of("C-leaf-0")):
            if net.is_switch(wire.a.node) and net.is_switch(wire.b.node):
                net.disconnect(wire)
        assert not net.is_connected()
        assert_matches_reference(net, "C-svc")
        with pytest.raises(TopologyError):
            diameter(net)


def assert_effective_matches_reference(net: Network, h0: str) -> Network:
    """The BFS ``effective_network`` equals the networkx one: the same
    nodes and wires, in the same order, and the same core ``N - F``."""
    got = effective_network(net, FaultModel(), h0)
    want = reference_effective_network(net, h0)
    assert got.nodes == want.nodes, h0
    assert [(w.a, w.b) for w in got.wires] == [(w.a, w.b) for w in want.wires], h0
    got_core, want_core = core_network(got), core_network(want)
    assert got_core.nodes == want_core.nodes, h0
    assert {(w.a, w.b) for w in got_core.wires} == {
        (w.a, w.b) for w in want_core.wires
    }, h0
    return got


class TestEffectiveNetwork:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_switches=st.integers(min_value=1, max_value=7),
        n_hosts=st.integers(min_value=2, max_value=5),
        extra_links=st.integers(min_value=0, max_value=4),
        loopbacks=st.integers(min_value=0, max_value=2),
        n_dead=st.integers(min_value=0, max_value=3),
        cut_bridge=st.booleans(),
        strand_a_host=st.booleans(),
        pair=st.booleans(),
        lone=st.booleans(),
    )
    def test_equals_reference_for_every_mapper_host(
        self, seed, n_switches, n_hosts, extra_links, loopbacks, n_dead,
        cut_bridge, strand_a_host, pair, lone,
    ):
        """Dead wires drawn from every cable (parallel and loopback ones
        included), a dead switch-bridge that splits the fabric, a host whose
        only wire is dead, a host–host cable and an unattached host; every
        host is the mapper once."""
        try:
            net = seeded_fabric(seed, n_switches, n_hosts, extra_links, 1, loopbacks)
        except TopologyError:
            return  # density does not fit the radix
        add_odd_hosts(net, seed, 0, 0, pair, lone)
        rng = random.Random(seed)
        wires = sorted(net.wires, key=lambda w: w.key)
        dead = rng.sample(wires, min(n_dead, len(wires)))
        if cut_bridge:
            trunk = [
                w for w in bridges(net)
                if net.is_switch(w.a.node) and net.is_switch(w.b.node)
            ]
            dead += trunk[:1]
        if strand_a_host:
            leaf = rng.choice(sorted(h for h in net.hosts if net.wires_of(h)))
            dead += net.wires_of(leaf)
        for wire in dict.fromkeys(dead):  # a failed cable is a missing wire
            net.disconnect(wire)
        for h0 in net.hosts:
            assert_effective_matches_reference(net, h0)

    def test_dead_trunk_splits_off_a_leaf_switch(self):
        net = build_subcluster("C")
        trunk = [
            w for w in net.wires_of("C-leaf-0")
            if net.is_switch(w.a.node) and net.is_switch(w.b.node)
        ]
        for wire in trunk:
            net.disconnect(wire)
        got = assert_effective_matches_reference(net, "C-svc")
        assert "C-leaf-0" not in got.nodes and "C-svc" in got.nodes
        behind = min(
            h for h in net.hosts if net.host_attachment(h).node == "C-leaf-0"
        )
        stranded = assert_effective_matches_reference(net, behind)
        assert "C-leaf-0" in stranded.nodes and "C-svc" not in stranded.nodes

    def test_mapper_whose_only_wire_is_dead_is_alone(self, tiny_net):
        (wire,) = tiny_net.wires_of("h0")
        tiny_net.disconnect(wire)
        got = assert_effective_matches_reference(tiny_net, "h0")
        assert got.nodes == ["h0"] and got.n_wires == 0

    def test_unknown_mapper_is_refused_alike(self, tiny_net):
        with pytest.raises(TopologyError):
            reference_effective_network(tiny_net, "nowhere")
        with pytest.raises(TopologyError):
            effective_network(tiny_net, FaultModel(), "nowhere")


class TestLeafHostsReadOffTheirSwitch:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FABRICS))
    def test_q_value_flow_equals_the_decomposition(self, name):
        """``q_value`` still runs the flow for any ``v``; the decomposition
        reads a leaf's ``Q(v)`` off one BFS from ``h0``. Every golden
        fabric (the full NOW and fat-tree k=4 among them), from its first
        and last host — a host–host cable and an unattached host too."""
        net = GOLDEN_FABRICS[name]()
        hosts = sorted(net.hosts)
        for h0 in (hosts[0], hosts[-1]):
            d = core_decomposition(net, h0)
            for v in net.nodes:
                if v not in d.f_set:
                    assert q_value(net, h0, v) == d.q_values.get(v), (h0, v)


class TestPinned:
    def test_full_now_from_first_host(self):
        net = build_full_now()
        d = core_decomposition(net, sorted(net.hosts)[0])
        assert d.diameter == 8
        assert d.q == 7
        assert d.search_depth == 16
        assert set(d.q_values.values()) == {0, 2, 4, 5, 6, 7}
        assert len(d.q_values) == 140 and not d.f_set

    def test_subcluster_c_from_the_utility_host(self):
        assert core_decomposition(build_subcluster("C"), "C-svc").search_depth == 11

    def test_degenerate_component_gets_depth_two(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0")
        net = b.build(validate=False)
        assert recommended_search_depth(net, "h0") == 2  # h1 is unreachable
        assert recommended_search_depth(net, "h1") == 2  # alone, no switch

    def test_mapper_must_be_a_host_of_the_network(self, tiny_net):
        with pytest.raises(TopologyError):
            recommended_search_depth(tiny_net, "s0")
        with pytest.raises(TopologyError):
            core_decomposition(tiny_net, "nowhere")
