"""Collision-model tests: Section 2.3.1 semantics."""

import pytest

from repro.simulator.collision import CircuitModel, CutThroughModel, PacketModel
from repro.simulator.path_eval import Traversal
from repro.topology.model import PortRef


def _tr(a, pa, b, pb):
    return Traversal(PortRef(a, pa), PortRef(b, pb))


SIMPLE = [_tr("h0", 0, "s0", 0), _tr("s0", 1, "s1", 0), _tr("s1", 1, "h1", 0)]

# Out and back over the same wire (opposite directions).
OUT_AND_BACK = [
    _tr("h0", 0, "s0", 0),
    _tr("s0", 1, "s1", 0),
    _tr("s1", 0, "s0", 1),
    _tr("s0", 0, "h0", 0),
]

# Same directed wire used twice, with two crossings in between.
DIRECTED_REUSE = [
    _tr("s0", 1, "s1", 0),
    _tr("s1", 1, "s2", 0),
    _tr("s2", 1, "s0", 2),
    _tr("s0", 1, "s1", 0),  # repeat of traversal 0, same direction
]


class TestPacket:
    def test_never_blocks(self):
        model = PacketModel()
        assert model.blocked_at(SIMPLE) is None
        assert model.blocked_at(DIRECTED_REUSE) is None


class TestCircuit:
    def test_simple_path_ok(self):
        assert CircuitModel().blocked_at(SIMPLE) is None

    def test_opposite_direction_reuse_ok(self):
        # Links are full duplex: out-and-back does not self-collide.
        assert CircuitModel().blocked_at(OUT_AND_BACK) is None

    def test_same_direction_reuse_blocks(self):
        assert CircuitModel().blocked_at(DIRECTED_REUSE) == 3

    def test_blocks_at_first_reuse(self):
        doubled = DIRECTED_REUSE + DIRECTED_REUSE
        assert CircuitModel().blocked_at(doubled) == 3


class TestCutThrough:
    def test_zero_slack_is_packet(self):
        model = CutThroughModel(slack_hops=0)
        assert model.blocked_at(DIRECTED_REUSE) is None

    def test_reuse_outside_window_ok(self):
        # Gap between uses is 3 crossings; slack 2 lets the tail pass.
        model = CutThroughModel(slack_hops=2)
        assert model.blocked_at(DIRECTED_REUSE) is None

    def test_reuse_inside_window_blocks(self):
        model = CutThroughModel(slack_hops=3)
        assert model.blocked_at(DIRECTED_REUSE) == 3

    def test_large_slack_equals_circuit(self):
        model = CutThroughModel(slack_hops=10_000)
        circuit = CircuitModel()
        for trs in (SIMPLE, OUT_AND_BACK, DIRECTED_REUSE):
            assert model.blocked_at(trs) == circuit.blocked_at(trs)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            CutThroughModel(slack_hops=-1)

class TestPaperSemantics:
    """The two Section 2.3.1 clauses, as observable probe behavior."""

    def test_switch_probe_over_reused_wire_fails_in_circuit_model(self):
        """A probe path that reuses a wire (either direction) makes the
        full out-and-back loopback string reuse a *directed* wire."""
        # Base path: crosses w in both directions (bounce pattern), then
        # the loopback return doubles it.
        base = [
            _tr("h0", 0, "s0", 0),
            _tr("s0", 1, "s1", 0),  # w, forward
            _tr("s1", 0, "s0", 1),  # w, backward
            _tr("s0", 2, "s2", 0),
        ]
        bounce = [_tr("s2", 0, "s0", 2)]
        retrace = [
            _tr("s0", 1, "s1", 0),  # w forward again -> directed reuse
            _tr("s1", 0, "s0", 1),
            _tr("s0", 0, "h0", 0),
        ]
        full = base + bounce + retrace
        assert CircuitModel().blocked_at(full) is not None

    def test_cut_through_may_let_the_same_probe_through(self):
        base = [
            _tr("h0", 0, "s0", 0),
            _tr("s0", 1, "s1", 0),
            _tr("s1", 0, "s0", 1),
            _tr("s0", 2, "s2", 0),
        ]
        bounce = [_tr("s2", 0, "s0", 2)]
        retrace = [
            _tr("s0", 1, "s1", 0),
            _tr("s1", 0, "s0", 1),
            _tr("s0", 0, "h0", 0),
        ]
        full = base + bounce + retrace
        # Gap between the two forward crossings of w is 4 > slack 1.
        assert CutThroughModel(slack_hops=1).blocked_at(full) is None
