"""Tests for the fluent network builder."""

import pytest

from tests.topology.reference_builder import NetworkBuilder
from repro.topology.model import PortRef, TopologyError


def chain(b: NetworkBuilder, *nodes: str) -> NetworkBuilder:
    """Wire consecutive nodes in a path, auto-assigning ports."""
    for x, y in zip(nodes, nodes[1:]):
        if b.peek().is_host(x):
            b.attach(x, y)
        elif b.peek().is_host(y):
            b.attach(y, x)
        else:
            b.link(x, y)
    return b


class TestBuilder:
    def test_attach_auto_port(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0")
        b.attach("h1", "s0")
        net = b.build()
        assert net.host_attachment("h0") == PortRef("s0", 0)
        assert net.host_attachment("h1") == PortRef("s0", 1)

    def test_attach_explicit_port(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0", port=7)
        b.attach("h1", "s0", port=0)
        net = b.build()
        assert net.host_attachment("h0") == PortRef("s0", 7)

    def test_attach_rejects_non_host(self):
        b = NetworkBuilder()
        b.switches("s0", "s1")
        with pytest.raises(TopologyError, match="not a host"):
            b.attach("s1", "s0")

    def test_link_auto_ports(self):
        b = NetworkBuilder()
        b.switches("s0", "s1")
        wire = b.link("s0", "s1")
        assert {wire.a.node, wire.b.node} == {"s0", "s1"}

    def test_link_loopback_uses_distinct_ports(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        wire = b.link("s0", "s0")
        assert wire.a.node == wire.b.node == "s0"
        assert wire.a.port != wire.b.port

    def test_chain(self):
        b = NetworkBuilder()
        b.switches("s0", "s1", "s2").hosts("h0", "h1")
        chain(b, "h0", "s0", "s1", "s2", "h1")
        net = b.build(require_connected=True)
        assert net.n_wires == 4

    def test_port_exhaustion(self):
        b = NetworkBuilder()
        b.switch("s0", radix=2).switch("s1")
        b.link("s0", "s1")
        b.link("s0", "s1")
        with pytest.raises(TopologyError, match="no free port"):
            b.link("s0", "s1")

    def test_build_validates_by_default(self):
        b = NetworkBuilder()
        b.switch("s0")
        b.host("h0")  # not attached, and only one host
        with pytest.raises(TopologyError):
            b.build()
        # peek gives the raw network regardless
        assert b.peek().n_hosts == 1

    def test_build_without_validation(self):
        b = NetworkBuilder()
        b.switch("s0")
        net = b.build(validate=False)
        assert net.n_switches == 1
