"""Tests for port-aware isomorphism (what the mapper can guarantee)."""

import pytest

from tests.topology.reference_builder import NetworkBuilder
from repro.topology.isomorphism import match_networks
from tests.topology.reference_isomorphism import networks_equal


def _two_switch(port_shift: int = 0, swap_names: bool = False):
    """A small network; optionally shift all of s1's ports by a constant."""
    b = NetworkBuilder()
    s0, s1 = ("s1", "s0") if swap_names else ("s0", "s1")
    b.switches(s0, s1)
    b.hosts("h0", "h1", "h2")
    b.attach("h0", s0, port=0)
    b.attach("h1", s0, port=1)
    b.attach("h2", s1, port=(3 + port_shift))
    b.link(s0, s1, port_a=5, port_b=(0 + port_shift))
    b.link(s0, s1, port_a=6, port_b=(1 + port_shift))
    return b.build()


class TestPositive:
    def test_identical_networks(self):
        assert networks_equal(_two_switch(), _two_switch())
        assert match_networks(_two_switch(), _two_switch())

    def test_port_offset_tolerated(self):
        a, b = _two_switch(0), _two_switch(2)
        assert not networks_equal(a, b)
        report = match_networks(a, b)
        assert report.isomorphic
        # The witness records the offset on the shifted switch.
        shifted = [s for s, off in report.port_offsets.items() if off]
        assert len(shifted) == 1

    def test_switch_names_ignored(self):
        assert match_networks(
            _two_switch(), _two_switch(swap_names=True)
        )

    def test_witness_maps_all_switches(self):
        report = match_networks(_two_switch(), _two_switch(2))
        assert set(report.node_map) >= {"s0", "s1", "h0", "h1", "h2"}

    def test_parallel_wires_matched_individually(self, two_switch_net):
        assert match_networks(two_switch_net, two_switch_net)

    def test_host_to_host_cable(self):
        """A host cabled to a host anchors no switch; the pair still
        matches, and the same host on a switch instead does not."""

        def with_host_cable(on_switch: bool):
            net = _two_switch()
            net.add_host("h3")
            net.add_host("h4")
            if on_switch:
                net.connect("h3", 0, "s1", 7)
            else:
                net.connect("h3", 0, "h4", 0)
            return net

        assert match_networks(with_host_cable(False), with_host_cable(False))
        report = match_networks(with_host_cable(False), with_host_cable(True))
        assert not report and "h3" in report.reason


class TestNegative:
    def test_host_set_differs(self):
        a = _two_switch()
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h9")
        b.attach("h0", "s0")
        b.attach("h9", "s0")
        report = match_networks(a, b.build())
        assert not report
        assert "host sets differ" in report.reason

    def test_wire_count_differs(self):
        a = _two_switch()
        b = _two_switch()
        b.disconnect(b.wire_at("s0", 6))
        report = match_networks(a, b)
        assert not report and "wire counts differ" in report.reason

    def test_host_moved_to_other_switch(self):
        a = _two_switch()
        b = NetworkBuilder()
        b.switches("s0", "s1")
        b.hosts("h0", "h1", "h2")
        b.attach("h0", "s0", port=0)
        b.attach("h2", "s0", port=1)  # h2 and h1 swapped switches
        b.attach("h1", "s1", port=3)
        b.link("s0", "s1", port_a=5, port_b=0)
        b.link("s0", "s1", port_a=6, port_b=1)
        assert not match_networks(a, b.build())

    def test_inconsistent_relative_ports(self):
        # Same counts, but the wires at s1 land at ports whose *spacing*
        # differs — no single offset can reconcile them.
        a = _two_switch()
        b = NetworkBuilder()
        b.switches("s0", "s1")
        b.hosts("h0", "h1", "h2")
        b.attach("h0", "s0", port=0)
        b.attach("h1", "s0", port=1)
        b.attach("h2", "s1", port=3)
        b.link("s0", "s1", port_a=5, port_b=0)
        b.link("s0", "s1", port_a=6, port_b=2)  # spacing 2, not 1
        assert not match_networks(a, b.build())

    def test_switch_count_differs(self):
        a = _two_switch()
        b = NetworkBuilder()
        b.switches("s0", "s1", "s2")
        b.hosts("h0", "h1", "h2")
        b.attach("h0", "s0", port=0)
        b.attach("h1", "s0", port=1)
        b.attach("h2", "s1", port=3)
        b.link("s0", "s1", port_a=5, port_b=0)
        b.link("s0", "s2")
        report = match_networks(a, b.build(validate=False))
        assert not report


class TestLoopbacks:
    def test_loopback_cable_matched(self):
        def build(shift=0):
            b = NetworkBuilder()
            b.switch("s0").hosts("h0", "h1")
            b.attach("h0", "s0", port=0 + shift)
            b.attach("h1", "s0", port=1 + shift)
            b.link("s0", "s0", port_a=4 + shift, port_b=6 + shift)
            return b.build()

        assert match_networks(build(0), build(1))

    def test_loopback_position_matters(self):
        def build(pa, pb):
            b = NetworkBuilder()
            b.switch("s0").hosts("h0", "h1")
            b.attach("h0", "s0", port=0)
            b.attach("h1", "s0", port=1)
            b.link("s0", "s0", port_a=pa, port_b=pb)
            return b.build()

        assert not match_networks(build(4, 6), build(4, 5))
