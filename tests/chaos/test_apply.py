"""ScenarioApplier tests: coherence rules, down cables and epoch bookkeeping."""

import pytest

from repro.chaos.apply import ScenarioApplier
from repro.chaos.scenario import ChaosEvent, ScenarioError
from repro.simulator.faults import FaultModel
from repro.topology.generators import build_ring
from repro.topology.model import PortRef


@pytest.fixture()
def rig():
    net = build_ring(4)
    faults = FaultModel(seed=0)
    return net, faults, ScenarioApplier(net, faults)


def _ev(action, *args):
    return ChaosEvent(0, action, args)


def _cables(net):
    return {(w.a, w.b) for w in net.wires}


class TestCutHeal:
    def test_cut_marks_the_cable_dead(self, rig):
        net, faults, applier = rig
        wire = net.wire_at("ring-s0", 1)
        applier.apply(_ev("cut", "ring-s0", 1))
        assert (wire.a, wire.b) in applier.down
        assert net.wire_at("ring-s0", 1) is None

    def test_cut_takes_the_wire_out_of_net_and_leaves_the_fault_epoch(self, rig):
        net, faults, applier = rig
        wire = net.wire_at("ring-s0", 1)
        before, epoch = _cables(net), net.topology_epoch
        applier.apply(_ev("cut", "ring-s0", 1))
        assert _cables(net) == before - {(wire.a, wire.b)}
        assert net.topology_epoch == epoch + 1
        assert faults.fault_epoch == 0

    def test_heal_restores(self, rig):
        net, faults, applier = rig
        before = _cables(net)
        applier.apply(_ev("cut", "ring-s0", 1))
        applier.apply(_ev("heal", "ring-s0", 1))
        assert not applier.down
        assert _cables(net) == before

    def test_heal_reconnects_the_same_two_ends(self, rig):
        net, faults, applier = rig
        wire = net.wire_at("ring-s0", 1)
        applier.apply(_ev("cut", "ring-s0", 1))
        epoch = net.topology_epoch
        applier.apply(_ev("heal", "ring-s0", 1))
        again = net.wire_at("ring-s0", 1)
        assert (again.a, again.b) == (wire.a, wire.b)
        assert net.affected_since(epoch).added == {
            (wire.a.node, wire.a.port),
            (wire.b.node, wire.b.port),
        }
        assert faults.fault_epoch == 0

    def test_double_cut_rejected(self, rig):
        _, _, applier = rig
        applier.apply(_ev("cut", "ring-s0", 1))
        with pytest.raises(ScenarioError, match="already cut"):
            applier.apply(_ev("cut", "ring-s0", 1))

    def test_heal_of_uncut_rejected(self, rig):
        _, _, applier = rig
        with pytest.raises(ScenarioError, match="not cut"):
            applier.apply(_ev("heal", "ring-s0", 1))

    def test_cut_of_empty_port_rejected(self, rig):
        _, _, applier = rig
        with pytest.raises(ScenarioError, match="no cable"):
            applier.apply(_ev("cut", "ring-s0", 7))


class TestKillRevive:
    def test_kill_switch_silences_every_cable(self, rig):
        net, faults, applier = rig
        expected = {(w.a, w.b) for w in net.wires_of("ring-s1")}
        applier.apply(_ev("kill_switch", "ring-s1"))
        assert set(applier.down) == expected
        assert len(expected) == 3  # two ring cables + the host drop
        assert not list(net.wires_of("ring-s1"))

    def test_revive_resurrects_exactly_current_cables(self, rig):
        net, faults, applier = rig
        before = _cables(net)
        applier.apply(_ev("kill_switch", "ring-s1"))
        applier.apply(_ev("revive_switch", "ring-s1"))
        assert not applier.down
        assert _cables(net) == before

    def test_kill_unknown_node_rejected(self, rig):
        _, _, applier = rig
        with pytest.raises(ScenarioError, match="no such node"):
            applier.apply(_ev("kill_host", "ghost"))

    def test_revive_of_living_rejected(self, rig):
        _, _, applier = rig
        with pytest.raises(ScenarioError, match="not dead"):
            applier.apply(_ev("revive_host", "ring-n000"))

    def test_cut_survives_unrelated_revive(self, rig):
        net, faults, applier = rig
        wire = net.wire_at("ring-s0", 1)
        applier.apply(_ev("cut", "ring-s0", 1))
        applier.apply(_ev("kill_host", "ring-n002"))
        applier.apply(_ev("revive_host", "ring-n002"))
        assert list(applier.down) == [(wire.a, wire.b)]
        assert net.wire_at("ring-s0", 1) is None
        assert list(net.wires_of("ring-n002"))


class TestStructuralEvents:
    def test_unplug_bumps_topology_epoch(self, rig):
        net, faults, applier = rig
        before = net.topology_epoch
        applier.apply(_ev("unplug", "ring-s0", 1))
        assert net.topology_epoch > before
        assert net.wire_at("ring-s0", 1) is None

    def test_unplug_clears_a_cut_on_the_same_cable(self, rig):
        net, faults, applier = rig
        applier.apply(_ev("cut", "ring-s0", 1))
        applier.apply(_ev("unplug", "ring-s0", 1))
        assert not applier.down  # gone is gone, not silently dead
        with pytest.raises(ScenarioError, match="no cable"):
            applier.apply(_ev("heal", "ring-s0", 1))

    def test_plug_onto_killed_switch_is_born_dead(self, rig):
        net, faults, applier = rig
        applier.apply(_ev("kill_switch", "ring-s2"))
        dead_before = set(applier.down)
        applier.apply(_ev("plug", "ring-s0", 3, "ring-s2", 3))
        assert (PortRef("ring-s0", 3), PortRef("ring-s2", 3)) in applier.down
        assert len(applier.down) == len(dead_before) + 1
        assert net.wire_at("ring-s0", 3) is None

    def test_plug_occupied_port_rejected(self, rig):
        _, _, applier = rig
        with pytest.raises(ScenarioError, match="cannot apply"):
            applier.apply(_ev("plug", "ring-s0", 1, "ring-s2", 3))

    def test_plug_onto_a_cut_cables_port_is_refused(self, rig):
        net, _, applier = rig
        applier.apply(_ev("cut", "ring-s0", 1))
        assert net.wire_at("ring-s0", 1) is None  # free in ``net``, held down
        before, epoch = _cables(net), net.topology_epoch
        with pytest.raises(ScenarioError, match="ring-s0:1 already wired"):
            applier.apply(_ev("plug", "ring-s0", 1, "ring-s2", 3))
        assert (_cables(net), net.topology_epoch) == (before, epoch)


class TestProbabilisticEvents:
    def test_ramps_hit_the_fault_model(self, rig):
        _, faults, applier = rig
        applier.apply(_ev("drop", 0.4))
        applier.apply(_ev("corrupt", 0.1))
        assert faults.drop_prob == 0.4
        assert faults.corrupt_prob == 0.1
        assert faults.fault_epoch == 2
