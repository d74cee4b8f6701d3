"""Structural tests for the classic-topology generators."""

import pytest

from repro.topology.generators import (
    build_chain,
    build_fat_tree,
    build_hypercube,
    build_mesh,
    build_ring,
    build_star,
    build_torus,
)
from repro.topology.model import TopologyError
from tests.topology.reference_queries import degree, diameter


class TestChainAndRing:
    def test_chain_structure(self):
        net = build_chain(4, hosts_per_switch=2)
        assert net.n_switches == 4
        assert net.n_hosts == 8
        assert net.n_wires == 3 + 8

    def test_chain_diameter(self):
        # host - s0 - s1 - s2 - s3 - host
        assert diameter(build_chain(4)) == 5

    def test_ring_structure(self):
        net = build_ring(5)
        assert net.n_switches == 5
        assert net.n_wires == 5 + 5

    def test_ring_minimum_size(self):
        with pytest.raises(TopologyError):
            build_ring(2)


class TestStar:
    def test_star_structure(self):
        net = build_star(4, hosts_per_switch=1)
        assert net.n_switches == 5  # hub + leaves
        assert degree(net, "star-hub") == 4

    def test_star_radix_limit(self):
        with pytest.raises(TopologyError):
            build_star(9)  # hub has 8 ports


class TestMeshAndTorus:
    def test_mesh_wire_count(self):
        net = build_mesh(3, 4, hosts_per_switch=1)
        switch_wires = 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols
        assert net.n_wires == switch_wires + 12

    def test_mesh_corner_degree(self):
        net = build_mesh(3, 3, hosts_per_switch=0 or 1)
        assert degree(net, "mesh-s0x0") == 2 + 1  # two links + one host

    def test_torus_wire_count(self):
        net = build_torus(3, 3, hosts_per_switch=1)
        assert net.n_wires == 2 * 9 + 9  # 2 links per switch + hosts

    def test_torus_regular_degree(self):
        net = build_torus(3, 4, hosts_per_switch=1)
        for s in net.switches:
            assert degree(net, s) == 5  # 4 torus links + 1 host

    def test_torus_size_two_has_parallel_wires(self):
        net = build_torus(2, 2, hosts_per_switch=1)
        g = net.to_networkx()
        assert g.number_of_edges("torus-s0x0", "torus-s0x1") == 2

    def test_torus_rejects_degenerate(self):
        with pytest.raises(TopologyError):
            build_torus(1, 5)


class TestHypercube:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hypercube_counts(self, dim):
        net = build_hypercube(dim, hosts_per_switch=1)
        assert net.n_switches == 2**dim
        assert net.n_wires == dim * 2 ** (dim - 1) + 2**dim

    def test_hypercube_diameter(self):
        # switch-to-switch diameter is dim; host-to-host adds 2.
        assert diameter(build_hypercube(3, hosts_per_switch=1)) == 3 + 2

    def test_hypercube_radix_limit(self):
        with pytest.raises(TopologyError):
            build_hypercube(8, hosts_per_switch=1)


class TestFatTree:
    def test_fat_tree_structure(self):
        net = build_fat_tree(n_leaves=4, hosts_per_leaf=3)
        assert net.n_hosts == 12
        assert net.n_switches == 4 + 2
        assert sorted(len(list(net.wires_of(r))) for r in ("ft-l1-0", "ft-l1-1")) == [4, 4]
        net.validate(require_connected=True)

    def test_fat_tree_radix_guard(self):
        with pytest.raises(TopologyError):
            build_fat_tree(n_leaves=2, hosts_per_leaf=7)
