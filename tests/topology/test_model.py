"""Unit tests for the network model (Section 2.1 invariants)."""

import pytest

from repro.topology.model import (
    HOST_PORT,
    Network,
    PortRef,
    TopologyError,
    Wire,
)
from tests.topology.reference_queries import degree, used_ports


class TestNodes:
    def test_add_host_and_switch(self):
        net = Network()
        net.add_host("h0")
        net.add_switch("s0")
        assert net.is_host("h0") and not net.is_switch("h0")
        assert net.is_switch("s0") and not net.is_host("s0")

    def test_host_has_one_port(self):
        net = Network()
        net.add_host("h0")
        assert net.radix("h0") == 1
        assert net.free_ports("h0") == [HOST_PORT]

    def test_switch_default_radix_is_eight(self):
        net = Network()
        net.add_switch("s0")
        assert net.radix("s0") == 8
        assert net.free_ports("s0") == list(range(8))

    def test_custom_radix(self):
        net = Network()
        net.add_switch("s0", radix=4)
        assert net.radix("s0") == 4

    def test_duplicate_name_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(TopologyError, match="duplicate"):
            net.add_switch("x")

    def test_zero_radix_rejected(self):
        net = Network()
        with pytest.raises(TopologyError):
            net.add_switch("s0", radix=0)

    def test_unknown_node_raises(self):
        net = Network()
        with pytest.raises(TopologyError, match="no such node"):
            net.radix("ghost")

    def test_metadata_round_trip(self):
        net = Network()
        net.add_host("svc", utility=True)
        assert net.meta("svc")["utility"] is True

    def test_counts(self):
        net = Network()
        net.add_host("h0")
        net.add_host("h1")
        net.add_switch("s0")
        assert (net.n_hosts, net.n_switches, net.n_wires) == (2, 1, 0)
        assert set(net.hosts) == {"h0", "h1"}
        assert net.switches == ["s0"]
        assert "h0" in net and "nope" not in net


class TestWires:
    def _base(self) -> Network:
        net = Network()
        net.add_host("h0")
        net.add_switch("s0")
        net.add_switch("s1")
        return net

    def test_connect_and_lookup(self):
        net = self._base()
        wire = net.connect("h0", 0, "s0", 3)
        assert net.wire_at("h0", 0) == wire
        assert net.wire_at("s0", 3) == wire
        assert net.neighbor_at("h0", 0) == PortRef("s0", 3)
        assert net.neighbor_at("s0", 3) == PortRef("h0", 0)

    def test_wire_normalizes_end_order(self):
        a, b = PortRef("s1", 2), PortRef("s0", 5)
        wire = Wire(a, b)
        assert wire.a == b and wire.b == a  # sorted

    def test_other_end_rejects_foreign_port(self):
        wire = Wire(PortRef("s0", 1), PortRef("s1", 2))
        with pytest.raises(TopologyError):
            wire.other_end(PortRef("s9", 0))

    def test_port_exclusivity(self):
        net = self._base()
        net.connect("s0", 0, "s1", 0)
        with pytest.raises(TopologyError, match="already wired"):
            net.connect("s0", 0, "s1", 1)

    def test_port_range_checked(self):
        net = self._base()
        with pytest.raises(TopologyError, match="out of range"):
            net.connect("s0", 8, "s1", 0)
        with pytest.raises(TopologyError, match="out of range"):
            net.connect("h0", 1, "s0", 0)

    def test_self_port_wire_rejected(self):
        net = self._base()
        with pytest.raises(TopologyError, match="itself"):
            net.connect("s0", 2, "s0", 2)

    def test_loopback_cable_allowed(self):
        net = self._base()
        wire = net.connect("s0", 2, "s0", 5)
        assert net.neighbor_at("s0", 2) == PortRef("s0", 5)
        assert net.neighbor_at("s0", 5) == PortRef("s0", 2)
        assert degree(net, "s0") == 2  # loopback counts twice
        assert list(net.wires_of("s0")) == [wire]  # yielded once

    def test_parallel_wires(self):
        net = self._base()
        w1 = net.connect("s0", 0, "s1", 0)
        w2 = net.connect("s0", 1, "s1", 1)
        assert w1 != w2
        assert net.n_wires == 2

    def test_disconnect(self):
        net = self._base()
        wire = net.connect("s0", 0, "s1", 0)
        net.disconnect(wire)
        assert net.wire_at("s0", 0) is None
        assert net.n_wires == 0
        with pytest.raises(TopologyError):
            net.disconnect(wire)

    def test_remove_node_drops_wires(self):
        net = self._base()
        net.connect("h0", 0, "s0", 0)
        net.connect("s0", 1, "s1", 1)
        net.remove_node("s0")
        assert "s0" not in net
        assert net.wire_at("h0", 0) is None
        assert net.wire_at("s1", 1) is None

    def test_used_and_free_ports(self):
        net = self._base()
        net.connect("s0", 2, "s1", 3)
        assert used_ports(net, "s0") == [2]
        assert 2 not in net.free_ports("s0")


class TestValidation:
    def test_validate_requires_switch_and_two_hosts(self):
        net = Network()
        net.add_host("h0")
        net.add_host("h1")
        with pytest.raises(TopologyError, match="switch"):
            net.validate()
        net.add_switch("s0")
        with pytest.raises(TopologyError, match="not attached"):
            net.validate()

    def test_validate_host_must_attach_to_switch(self):
        net = Network()
        net.add_switch("s0")
        net.add_host("h0")
        net.add_host("h1")
        net.connect("h0", 0, "h1", 0)
        with pytest.raises(TopologyError, match="not a switch"):
            net.validate()

    def test_validate_connectivity(self, tiny_net):
        tiny_net.validate(require_connected=True)

    def test_validate_disconnected(self):
        net = Network()
        net.add_switch("s0")
        net.add_switch("s1")
        net.add_host("h0")
        net.add_host("h1")
        net.connect("h0", 0, "s0", 0)
        net.connect("h1", 0, "s1", 0)
        with pytest.raises(TopologyError, match="not connected"):
            net.validate(require_connected=True)

    def test_host_attachment(self, tiny_net):
        assert tiny_net.host_attachment("h0") == PortRef("s0", 0)
        with pytest.raises(TopologyError):
            tiny_net.host_attachment("s0")


class TestCopiesAndExport:
    def test_copy_is_deep(self, two_switch_net):
        dup = two_switch_net.copy()
        assert dup.n_wires == two_switch_net.n_wires
        dup.disconnect(dup.wire_at("s0", 4))
        assert two_switch_net.wire_at("s0", 4) is not None

    def test_induced_subnetwork(self, two_switch_net):
        sub = two_switch_net.induced_subnetwork(["s0", "h0", "h1"])
        assert set(sub.hosts) == {"h0", "h1"}
        assert sub.switches == ["s0"]
        assert sub.n_wires == 2  # only wires with both ends kept

    def test_to_networkx(self, two_switch_net):
        g = two_switch_net.to_networkx()
        assert g.number_of_nodes() == 6
        assert g.number_of_edges() == 6
        assert g.nodes["s0"]["kind"] == "switch"
        assert g.nodes["h0"]["kind"] == "host"
        # parallel wires preserved as multi-edges
        assert g.number_of_edges("s0", "s1") == 2

    def test_is_connected(self, tiny_net):
        assert tiny_net.is_connected()


class TestTopologyEpoch:
    """Every successful mutator bumps ``topology_epoch`` exactly once — the
    contract the probe trie's cached walks are keyed on."""

    def test_network_epoch_counts_one_bump_per_mutation(self):
        net = Network()
        observed = [net.topology_epoch]
        net.add_host("h0")
        observed.append(net.topology_epoch)
        net.add_switch("sw0")
        observed.append(net.topology_epoch)
        wire = net.connect("h0", 0, "sw0", 3)
        observed.append(net.topology_epoch)
        net.disconnect(wire)
        observed.append(net.topology_epoch)
        net.remove_node("sw0")
        observed.append(net.topology_epoch)
        # Exactly +1 per successful mutator call, same as before unification.
        assert observed == [0, 1, 2, 3, 4, 5]

    def test_network_failed_mutation_leaves_epoch_untouched(self):
        net = Network()
        net.add_host("h0")
        before = net.topology_epoch
        with pytest.raises(Exception):
            net.add_host("h0")  # duplicate name
        with pytest.raises(Exception):
            net.connect("h0", 0, "h0", 0)
        assert net.topology_epoch == before
