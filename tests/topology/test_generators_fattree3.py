"""Three-tier fat tree (folded Clos) generator invariants."""

from __future__ import annotations

import pytest

from repro.topology.generators import (
    build_three_tier_fat_tree,
    three_tier_counts,
)
from repro.topology.model import TopologyError
from tests.topology.reference_queries import degree


class TestCounts:
    @pytest.mark.parametrize("k,hpe,switches,hosts", [
        (4, None, 20, 16),
        (8, None, 80, 128),
        (8, 2, 80, 64),
        (16, None, 320, 1024),
        (30, 2, 1125, 900),
    ])
    def test_formula(self, k, hpe, switches, hosts):
        assert three_tier_counts(k, hpe) == (switches, hosts)

    @pytest.mark.parametrize("k,hpe", [(4, None), (8, 2), (8, None)])
    def test_built_network_matches_formula(self, k, hpe):
        net = build_three_tier_fat_tree(k, hosts_per_edge=hpe)
        switches, hosts = three_tier_counts(k, hpe)
        assert net.n_switches == switches
        assert net.n_hosts == hosts


class TestStructure:
    def test_every_switch_has_radix_k(self):
        k = 8
        net = build_three_tier_fat_tree(k)
        assert all(net.radix(s) == k for s in net.switches)

    def test_core_sees_one_wire_per_pod(self):
        k = 8
        net = build_three_tier_fat_tree(k)
        cores = [s for s in net.switches if "-core-" in s]
        assert len(cores) == (k // 2) ** 2
        for core in cores:
            pods = set()
            for wire in net.wires_of(core):
                far = wire.other_end(
                    wire.a if wire.a.node == core else wire.b
                )
                pods.add(far.node.split("-")[1])
            assert len(pods) == k  # k distinct pods, one wire each

    def test_edge_ports_split_between_hosts_and_aggs(self):
        k = 8
        net = build_three_tier_fat_tree(k, hosts_per_edge=3)
        edges = [s for s in net.switches if "-edge-" in s]
        for edge in edges:
            hosts = sum(
                1 for wire in net.wires_of(edge)
                if net.is_host(wire.other_end(
                    wire.a if wire.a.node == edge else wire.b
                ).node)
            )
            assert hosts == 3
            assert degree(net, edge) == 3 + k // 2

    def test_network_is_connected_and_valid(self):
        net = build_three_tier_fat_tree(4)
        net.validate(require_connected=True)


class TestValidation:
    @pytest.mark.parametrize("k", [2, 3, 5, 0])
    def test_k_must_be_even_and_at_least_four(self, k):
        with pytest.raises(TopologyError, match="even k"):
            build_three_tier_fat_tree(k)

    @pytest.mark.parametrize("hpe", [0, 5, -1])
    def test_hosts_per_edge_bounded_by_uplinks(self, hpe):
        with pytest.raises(TopologyError, match="hosts_per_edge"):
            build_three_tier_fat_tree(8, hosts_per_edge=hpe)
