"""Tests for diameter, bridges, F (Lemma 1) and Q (Definitions 2/3)."""

import pytest

from repro.topology.analysis import (
    bridges,
    core_decomposition,
    core_network,
    recommended_search_depth,
    separated_set,
)
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import random_san
from tests.topology.reference_analysis import separated_set_flow
from tests.topology.reference_queries import diameter, q_value, switch_bridges


class TestDiameter:
    def test_tiny(self, tiny_net):
        assert diameter(tiny_net) == 2  # host - switch - host

    def test_two_switch(self, two_switch_net):
        assert diameter(two_switch_net) == 3


class TestBridges:
    def test_host_wires_are_bridges(self, tiny_net):
        found = bridges(tiny_net)
        assert len(found) == 3  # every host wire
        assert switch_bridges(tiny_net) == []

    def test_parallel_wires_not_bridges(self, two_switch_net):
        assert switch_bridges(two_switch_net) == []

    def test_switch_bridge_detected(self, bridge_net):
        sb = switch_bridges(bridge_net)
        assert len(sb) == 2  # s1--f0 and f0--f1
        ends = {frozenset(w.nodes) for w in sb}
        assert frozenset(("s1", "f0")) in ends
        assert frozenset(("f0", "f1")) in ends

    def test_ring_has_no_switch_bridges(self, ring_net):
        assert switch_bridges(ring_net) == []

    def test_loopback_never_bridge(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0")
        b.attach("h1", "s0")
        b.link("s0", "s0")
        net = b.build()
        assert all(w.a.node != w.b.node for w in bridges(net))


class TestSeparatedSet:
    def test_f_empty_when_no_switch_bridges(self, ring_net):
        assert separated_set(ring_net) == set()
        assert separated_set_flow(ring_net) == set()

    def test_f_contains_pendant_chain(self, bridge_net):
        assert separated_set(bridge_net) == {"f0", "f1"}

    def test_flow_method_agrees(self, bridge_net):
        assert separated_set_flow(bridge_net) == separated_set(bridge_net)

    @pytest.mark.parametrize("seed", range(6))
    def test_methods_agree_on_random_networks(self, seed):
        net = random_san(
            n_switches=7,
            n_hosts=4,
            extra_links=seed % 4,
            pendant_switches=seed % 3,
            seed=seed,
        )
        assert separated_set(net) == separated_set_flow(net)

    def test_core_network(self, bridge_net):
        core = core_network(bridge_net)
        assert set(core.switches) == {"s0", "s1"}
        assert set(core.hosts) == {"h0", "h1"}


class TestQ:
    def test_q_of_mapper_host_is_zero(self, tiny_net):
        assert q_value(tiny_net, "h0", "h0") == 0

    def test_q_single_switch(self, tiny_net):
        # h0 -> s0 -> h1: two edges.
        assert q_value(tiny_net, "h0", "s0") == 2

    def test_q_needs_edge_disjoint_continuation(self, two_switch_net):
        # h0 -> s0 -> s1 (2 edges) -> h2 (1 edge) = 3.
        assert q_value(two_switch_net, "h0", "s1") == 3

    def test_q_undefined_behind_switch_bridge(self, bridge_net):
        assert q_value(bridge_net, "h0", "f0") is None
        assert q_value(bridge_net, "h0", "f1") is None

    def test_q_defined_via_parallel_pair(self, bridge_net):
        # s1 has no host, but the parallel pair to s0 gives two
        # edge-disjoint trails: h0-s0-s1 back to s0-h1.
        assert q_value(bridge_net, "h0", "s1") == 4

    def test_q_anomaly_first_last_edge(self):
        # Two hosts on one switch; for the switch, the path h0-s0-h1 works
        # (length 2). For host h1, Q uses the anomaly: h0-s0-h1 with the
        # continuation of length 0.
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0")
        b.attach("h1", "s0")
        net = b.build()
        assert q_value(net, "h0", "s0") == 2
        assert q_value(net, "h0", "h1") == 2

    def test_rejects_non_host_mapper(self, tiny_net):
        with pytest.raises(ValueError):
            q_value(tiny_net, "s0", "s0")


class TestDecomposition:
    def test_decomposition_fields(self, bridge_net):
        d = core_decomposition(bridge_net, "h0")
        assert d.f_set == frozenset({"f0", "f1"})
        assert d.diameter == diameter(bridge_net)
        assert d.q == max(d.q_values.values())
        assert d.search_depth == d.q + d.diameter + 1

    def test_recommended_depth_positive(self, tiny_net):
        assert recommended_search_depth(tiny_net, "h0") >= 2
