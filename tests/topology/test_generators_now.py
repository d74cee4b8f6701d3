"""The NOW generators must reproduce the paper's Figure 3 counts exactly."""

import pytest

from repro.topology.analysis import separated_set
from repro.topology.generators import (
    NOW_EXPECTED_COMPONENTS,
    build_full_now,
    build_subcluster,
    combine_subclusters,
)
from repro.topology.model import TopologyError
from tests.topology.reference_queries import diameter


class TestSubclusters:
    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_component_counts_match_figure3(self, name):
        net = build_subcluster(name)
        assert (net.n_hosts, net.n_switches, net.n_wires) == (
            NOW_EXPECTED_COMPONENTS[name]
        )

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_connected_and_valid(self, name):
        net = build_subcluster(name)
        net.validate(require_connected=True)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_three_switch_levels(self, name):
        net = build_subcluster(name)
        levels = {net.meta(s)["level"] for s in net.switches}
        assert levels == {"leaf", "l2", "root"}

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_utility_host_on_root(self, name):
        net = build_subcluster(name)
        svc = f"{name}-svc"
        assert net.meta(svc).get("utility") is True
        attach = net.host_attachment(svc)
        assert net.meta(attach.node)["level"] == "root"

    def test_c_middle_leaf_irregularity(self):
        """Figure 4: the middle first-level switch has 2 uplinks, not 3."""
        net = build_subcluster("C")
        uplinks = {
            leaf: sum(
                1
                for w in net.wires_of(leaf)
                if net.is_switch(w.other_end(_end_on(w, leaf)).node)
            )
            for leaf in net.switches
            if net.meta(leaf)["level"] == "leaf"
        }
        assert sorted(uplinks.values()) == [2, 3, 3, 3, 3, 3, 3]

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_spare_ports_on_upper_levels(self, name):
        """Figure 4: 'there are unused switch ports on all level 2 and 3
        switches, leaving room for additional switches.'"""
        net = build_subcluster(name)
        roots = [s for s in net.switches if net.meta(s)["level"] == "root"]
        assert all(net.free_ports(r) for r in roots)

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_empty_f_set(self, name):
        """Every NOW switch lies on a host-to-host path: F is empty."""
        assert separated_set(build_subcluster(name)) == set()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_subcluster("D")

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_hosts_in_groups_of_at_most_five(self, name):
        net = build_subcluster(name)
        for leaf in net.switches:
            if net.meta(leaf)["level"] != "leaf":
                continue
            n_hosts = sum(
                1
                for w in net.wires_of(leaf)
                if net.is_host(w.other_end(_end_on(w, leaf)).node)
            )
            assert 1 <= n_hosts <= 5


class TestComposition:
    def test_c_plus_a(self):
        net = combine_subclusters("C", "A")
        assert net.n_hosts == 36 + 34
        assert net.n_switches == 13 + 13
        assert net.n_wires == 64 + 64  # cable count conserved

    def test_full_now_matches_abstract(self):
        net = build_full_now()
        assert (net.n_hosts, net.n_switches, net.n_wires) == (100, 40, 193)
        net.validate(require_connected=True)

    def test_full_now_diameter_reasonable(self):
        assert 6 <= diameter(build_full_now()) <= 10

    def test_composition_is_connected_across_subclusters(self):
        net = combine_subclusters("C", "A")
        import networkx as nx

        g = nx.Graph(net.to_networkx())
        assert nx.has_path(g, "C-n00", "A-n00")

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            combine_subclusters()

    def test_single_subcluster_composition(self):
        net = combine_subclusters("B")
        assert (net.n_hosts, net.n_switches, net.n_wires) == (30, 14, 65)


def _end_on(wire, node):
    return wire.a if wire.a.node == node else wire.b
