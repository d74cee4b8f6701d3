"""Message-path semantics: Section 2.2, all four failure modes."""

import pytest

from repro.simulator.path_eval import PathStatus, Traversal, evaluate_route
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.model import PortRef


class TestDelivery:
    def test_empty_route_hits_adjacent_switch(self, tiny_net):
        # No turns: the message stops inside the first switch = STRANDED.
        result = evaluate_route(tiny_net, "h0", ())
        assert result.status is PathStatus.STRANDED
        assert result.nodes == ["h0", "s0"]

    def test_one_turn_to_sibling_host(self, tiny_net):
        # h0 enters s0 at port 0; +3 goes to port 3 = h1.
        result = evaluate_route(tiny_net, "h0", (3,))
        assert result.status is PathStatus.DELIVERED and result.delivered_to == "h1"
        assert result.nodes == ["h0", "s0", "h1"]
        assert result.hops == 2

    def test_turns_are_relative(self, tiny_net):
        # From h2 (port 7), reaching h1 (port 3) needs turn -4.
        result = evaluate_route(tiny_net, "h2", (-4,))
        assert result.delivered_to == "h1"

    def test_multi_hop(self, two_switch_net):
        # h0 @ s0:0 -> +4 -> wire to s1:2 -> +4 -> s1 port 6 = h2.
        result = evaluate_route(two_switch_net, "h0", (4, 4))
        assert result.delivered_to == "h2"
        assert result.nodes == ["h0", "s0", "s1", "h2"]

    def test_traversals_recorded_with_direction(self, tiny_net):
        result = evaluate_route(tiny_net, "h0", (3,))
        assert result.traversals[0] == Traversal(
            PortRef("h0", 0), PortRef("s0", 0)
        )
        assert result.traversals[1] == Traversal(
            PortRef("s0", 3), PortRef("h1", 0)
        )


class TestFailureModes:
    def test_illegal_turn(self, tiny_net):
        # Entering s0 at port 0, turn -1 computes port -1: ILLEGAL TURN.
        result = evaluate_route(tiny_net, "h0", (-1,))
        assert result.status is PathStatus.ILLEGAL_TURN
        assert result.failed_at_turn == 0

    def test_illegal_turn_non_modular_high(self, tiny_net):
        # From h2 (enters at port 7), +1 computes port 8 (no modulo).
        result = evaluate_route(tiny_net, "h2", (1,))
        assert result.status is PathStatus.ILLEGAL_TURN

    def test_no_such_wire(self, tiny_net):
        # Port 5 of s0 is unwired.
        result = evaluate_route(tiny_net, "h0", (5,))
        assert result.status is PathStatus.NO_SUCH_WIRE
        assert result.failed_at_turn == 0

    def test_hit_a_host_too_soon(self, tiny_net):
        # First turn reaches h1, but a turn remains.
        result = evaluate_route(tiny_net, "h0", (3, 1))
        assert result.status is PathStatus.HIT_HOST_TOO_SOON
        assert result.failed_at_turn == 1

    def test_stranded_in_network(self, two_switch_net):
        # One turn lands inside s1 with no turns left.
        result = evaluate_route(two_switch_net, "h0", (4,))
        assert result.status is PathStatus.STRANDED

    def test_unattached_source(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h1", "s0")
        net = b.build(validate=False)
        result = evaluate_route(net, "h0", (1,))
        assert result.status is PathStatus.NOT_ATTACHED

    def test_source_must_be_host(self, tiny_net):
        with pytest.raises(ValueError):
            evaluate_route(tiny_net, "s0", (1,))


class TestBouncesAndLoops:
    def test_zero_turn_bounces_back(self, two_switch_net):
        # h0 -> s0 (enter port 0); +4 -> s1 (enter port 2); 0 bounces back
        # out port 2 into s0 (enter port 4); -4 exits port 0 to h0.
        result = evaluate_route(two_switch_net, "h0", (4, 0, -4))
        assert result.delivered_to == "h0"
        assert result.nodes == ["h0", "s0", "s1", "s0", "h0"]

    def test_switch_probe_loopback_path(self, two_switch_net):
        from tests.simulator.reference_service import switch_probe_turns

        loop = switch_probe_turns((4,))
        result = evaluate_route(two_switch_net, "h0", loop)
        assert result.status is PathStatus.DELIVERED and result.delivered_to == "h0"

    def test_loopback_cable_traversal(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0", port=0)
        b.attach("h1", "s0", port=1)
        b.link("s0", "s0", port_a=4, port_b=6)
        net = b.build()
        # h0 enters at 0; +4 goes out port 4, re-enters s0 at port 6;
        # -5 goes to port 1 = h1.
        result = evaluate_route(net, "h0", (4, -5))
        assert result.delivered_to == "h1"
        assert result.nodes == ["h0", "s0", "s0", "h1"]
