"""Stateful property testing of the Network model.

hypothesis drives random sequences of add/connect/disconnect/remove
operations against a :class:`~repro.topology.model.Network` while a shadow
model tracks what must be true. The invariants are the ones the entire
reproduction rests on: port exclusivity, symmetric neighbor lookups,
consistent counts, and serialization stability.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.topology.model import HOST_PORT, Network, TopologyError
from repro.topology.serialize import network_from_dict, network_to_dict
from tests.topology.reference_isomorphism import networks_equal
from tests.topology.reference_queries import degree, used_ports


class NetworkMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.net = Network()
        self.n_hosts = 0
        self.n_switches = 0
        self.expected_wires = 0

    # -- rules ------------------------------------------------------------
    @rule()
    def add_host(self):
        if self.n_hosts >= 12:
            return
        self.net.add_host(f"h{self.n_hosts}")
        self.n_hosts += 1

    @rule()
    def add_switch(self):
        if self.n_switches >= 8:
            return
        self.net.add_switch(f"s{self.n_switches}")
        self.n_switches += 1

    @rule(data=st.data())
    def connect_free_ports(self, data):
        free = [
            (node, port)
            for node in self.net.nodes
            for port in self.net.free_ports(node)
        ]
        if len(free) < 2:
            return
        a = data.draw(st.sampled_from(free), label="end_a")
        rest = [f for f in free if f != a]
        b = data.draw(st.sampled_from(rest), label="end_b")
        self.net.connect(a[0], a[1], b[0], b[1])
        self.expected_wires += 1

    @rule(data=st.data())
    def disconnect_some_wire(self, data):
        wires = self.net.wires
        if not wires:
            return
        wire = data.draw(st.sampled_from(wires), label="wire")
        self.net.disconnect(wire)
        self.expected_wires -= 1

    @rule(data=st.data())
    def remove_some_node(self, data):
        nodes = self.net.nodes
        if not nodes:
            return
        node = data.draw(st.sampled_from(nodes), label="node")
        dropped = sum(1 for _ in self.net.wires_of(node))
        self.net.remove_node(node)
        self.expected_wires -= dropped
        # names are never reused; counts only track totals created
        if node.startswith("h"):
            pass

    @rule()
    def double_wire_rejected(self):
        wires = self.net.wires
        if not wires:
            return
        wire = wires[0]
        try:
            # Both ports are occupied: reconnecting must fail.
            self.net.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        except TopologyError:
            return
        raise AssertionError("port exclusivity violated")

    # -- invariants ---------------------------------------------------------
    @invariant()
    def wire_count_matches(self):
        assert self.net.n_wires == self.expected_wires

    @invariant()
    def neighbor_lookup_is_symmetric(self):
        for wire in self.net.wires:
            for end in (wire.a, wire.b):
                other = wire.other_end(end)
                got = self.net.neighbor_at(end.node, end.port)
                assert got == other

    @invariant()
    def ports_are_exclusive(self):
        seen = set()
        for wire in self.net.wires:
            for end in (wire.a, wire.b):
                assert end not in seen, f"port {end} on two wires"
                seen.add(end)

    @invariant()
    def hosts_only_use_port_zero(self):
        for host in self.net.hosts:
            for wire in self.net.wires_of(host):
                for end in (wire.a, wire.b):
                    if end.node == host:
                        assert end.port == HOST_PORT

    @invariant()
    def degrees_consistent(self):
        for node in self.net.nodes:
            used = len(used_ports(self.net, node))
            free = len(self.net.free_ports(node))
            assert used + free == self.net.radix(node)
            assert degree(self.net, node) == used

    @invariant()
    def serialization_round_trips(self):
        data = network_to_dict(self.net)
        back = network_from_dict(data)
        assert networks_equal(self.net, back)


TestNetworkStateful = NetworkMachine.TestCase
TestNetworkStateful.settings = __import__("hypothesis").settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
