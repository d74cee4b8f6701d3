"""Structural map-diff tests."""

from repro.topology.diff import diff_networks
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import build_subcluster


def _sample():
    b = NetworkBuilder()
    b.switches("s0", "s1")
    b.hosts("h0", "h1", "h2")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=1)
    b.attach("h2", "s1", port=2)
    b.link("s0", "s1", port_a=5, port_b=0)
    return b.build()


class TestIdentical:
    def test_same_object(self):
        net = _sample()
        assert diff_networks(net, net).identical

    def test_copy_is_identical(self):
        net = _sample()
        d = diff_networks(net, net.copy())
        assert d.identical
        assert d.summary() == "no change"

    def test_port_offsets_tolerated(self):
        """A re-run mapper produces shifted ports; the diff must see
        through that (isomorphism up to offsets)."""
        a = _sample()
        b = NetworkBuilder()
        b.switches("x0", "x1")
        b.hosts("h0", "h1", "h2")
        b.attach("h0", "x0", port=2)  # all of s0's ports shifted by +2
        b.attach("h1", "x0", port=3)
        b.attach("h2", "x1", port=2)
        b.link("x0", "x1", port_a=7, port_b=0)
        assert diff_networks(a, b.build()).identical


class TestChanges:
    def test_host_added(self):
        old = _sample()
        new = _sample()
        new.add_host("h3")
        new.connect("h3", 0, "s1", 3)
        d = diff_networks(old, new)
        assert d.hosts_added == ["h3"]
        assert not d.identical
        assert "+1 hosts" in d.summary()

    def test_host_removed(self):
        old = _sample()
        new = _sample()
        new.remove_node("h2")
        d = diff_networks(old, new)
        assert d.hosts_removed == ["h2"]
        assert d.wire_count_delta == -1

    def test_host_moved(self):
        old = _sample()
        new = NetworkBuilder()
        new.switches("s0", "s1")
        new.hosts("h0", "h1", "h2")
        new.attach("h0", "s0", port=0)
        new.attach("h1", "s1", port=1)  # h1 moved from s0 to s1
        new.attach("h2", "s1", port=2)
        new.link("s0", "s1", port_a=5, port_b=0)
        d = diff_networks(old, new.build())
        assert "h1" in d.hosts_moved

    def test_switch_added(self):
        old = _sample()
        new = _sample()
        new.add_switch("s2")
        new.connect("s2", 0, "s1", 4)
        d = diff_networks(old, new)
        assert d.switch_count_delta == 1
        assert d.wire_count_delta == 1

    def test_rewiring_same_counts(self):
        old = _sample()
        new = _sample()
        wire = new.wire_at("s0", 5)
        new.disconnect(wire)
        new.connect("s0", 6, "s1", 7)  # same counts, different geometry...
        d = diff_networks(old, new)
        # Moving a switch-switch cable to other ports is invisible up to
        # offsets only if relative spacing is preserved; here s0's wires
        # are at (0,1,6) vs (0,1,5): spacing changed.
        assert not d.identical

    def test_subcluster_vs_other_subcluster(self):
        d = diff_networks(build_subcluster("C"), build_subcluster("A"))
        assert not d.identical
        assert d.hosts_added and d.hosts_removed
