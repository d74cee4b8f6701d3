"""Random-SAN generator tests: determinism, structure knobs, guards."""

import pytest

from repro.topology.analysis import separated_set
from repro.topology.generators import random_san
from repro.topology.model import TopologyError
from tests.topology.reference_isomorphism import networks_equal


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = random_san(n_switches=6, n_hosts=5, extra_links=3, seed=9)
        b = random_san(n_switches=6, n_hosts=5, extra_links=3, seed=9)
        assert networks_equal(a, b)

    def test_different_seed_different_network(self):
        a = random_san(n_switches=6, n_hosts=5, extra_links=3, seed=1)
        b = random_san(n_switches=6, n_hosts=5, extra_links=3, seed=2)
        assert not networks_equal(a, b)


class TestStructureKnobs:
    def test_counts(self):
        net = random_san(n_switches=5, n_hosts=4, seed=0)
        assert net.n_switches == 5
        assert net.n_hosts == 4
        # spanning tree: 4 switch links + 4 host links
        assert net.n_wires == 8

    def test_extra_links_add_wires(self):
        base = random_san(n_switches=6, n_hosts=3, extra_links=0, seed=4)
        dense = random_san(n_switches=6, n_hosts=3, extra_links=4, seed=4)
        assert dense.n_wires == base.n_wires + 4

    def test_pendants_populate_f(self):
        net = random_san(
            n_switches=5, n_hosts=3, pendant_switches=2, seed=0
        )
        f = separated_set(net)
        assert {"r-f0", "r-f1"} <= f

    def test_no_pendants_usually_empty_f(self):
        net = random_san(n_switches=5, n_hosts=5, extra_links=3, seed=0)
        # Extra links over a recursive tree rarely leave switch-bridges to
        # host-free regions; at minimum the pendants are absent.
        assert not any(n.startswith("r-f") for n in net.switches)

    def test_parallel_link_probability(self):
        net = random_san(
            n_switches=4,
            n_hosts=2,
            extra_links=4,
            parallel_link_prob=1.0,
            seed=3,
        )
        g = net.to_networkx()
        assert any(
            g.number_of_edges(u, v) > 1
            for u in net.switches
            for v in net.switches
            if u < v
        )

    def test_always_connected(self):
        for seed in range(10):
            net = random_san(
                n_switches=7, n_hosts=5, extra_links=seed % 5, seed=seed
            )
            assert net.is_connected()


class TestGuards:
    def test_at_least_two_hosts(self):
        with pytest.raises(TopologyError):
            random_san(n_switches=3, n_hosts=1, seed=0)

    def test_at_least_one_switch(self):
        with pytest.raises(TopologyError):
            random_san(n_switches=0, n_hosts=2, seed=0)

    def test_overfull_density_rejected(self):
        with pytest.raises(TopologyError):
            # 1 switch with radix 8 cannot take 9 hosts.
            random_san(n_switches=1, n_hosts=9, seed=0)
