"""Fault-model tests: probe loss and corruption, and a failed cable as a
missing wire."""

import pytest

from repro.chaos.apply import ScenarioApplier
from repro.chaos.scenario import ChaosEvent
from repro.core.mapper import BerkeleyMapper
from repro.simulator.faults import NO_FAULTS, FaultModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth
from repro.topology.model import TopologyError


class TestFaultModel:
    def test_inactive_by_default(self):
        """A model with both probabilities at zero loses nothing and draws
        nothing from its RNG."""
        for faults in (FaultModel(), NO_FAULTS):
            state = faults._rng.getstate()
            assert not any(faults.lost() for _ in range(100))
            assert faults._rng.getstate() == state

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultModel(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultModel(corrupt_prob=-0.1)

    def test_drop_prob_statistics(self):
        faults = FaultModel(drop_prob=0.5, seed=42)
        kills = sum(faults.lost() for _ in range(400))
        assert 140 < kills < 260  # ~50%

    def test_corrupt_prob_also_kills(self):
        assert FaultModel(corrupt_prob=1.0).lost()

    def test_deterministic_per_seed(self):
        def seq(seed):
            f = FaultModel(drop_prob=0.3, seed=seed)
            return [f.lost() for _ in range(50)]

        assert seq(7) == seq(7)
        assert seq(7) != seq(8)

    def test_dead_wire_only_affects_crossing_probes(self, two_switch_net):
        """A failed cable is a missing wire: probes across it go
        unanswered, probes that avoid it are answered as before."""
        svc = QuiescentProbeService(two_switch_net, "h0")
        two_switch_net.disconnect(two_switch_net.wire_at("s0", 4))
        assert svc.probe_switch((4,)) is False  # crossed the s0:4 cable
        assert svc.probe_switch((5,)) is True  # the parallel cable
        assert svc.probe_host((1,)) == "h1"  # local


class TestEpochMutators:
    """Mid-run reconfiguration must move state and fault_epoch atomically."""

    def test_fresh_model_starts_at_epoch_zero(self):
        assert FaultModel().fault_epoch == 0

    def test_each_mutator_bumps_epoch_once(self):
        faults = FaultModel()
        faults.set_drop_prob(0.25)
        assert faults.fault_epoch == 1
        assert faults.drop_prob == 0.25
        faults.set_corrupt_prob(0.1)
        assert faults.fault_epoch == 2
        assert faults.corrupt_prob == 0.1

    def test_fault_model_epoch_counts_one_bump_per_mutation(self):
        fm = FaultModel()
        assert fm.fault_epoch == 0
        fm.set_drop_prob(0.25)
        fm.set_corrupt_prob(0.5)
        fm.set_drop_prob(0.0)
        assert fm.fault_epoch == 3
        before = fm.fault_epoch
        with pytest.raises(ValueError):
            fm.set_drop_prob(1.5)
        with pytest.raises(ValueError):
            fm.set_corrupt_prob(-0.5)
        assert fm.fault_epoch == before

    def test_noop_mutations_are_bump_free(self):
        """Setting the value already in place is a true no-op: no epoch
        bump, so a seeded remap is not forced to fall back (regression:
        these used to bump unconditionally)."""
        faults = FaultModel(drop_prob=0.5)
        faults.set_drop_prob(0.5)
        faults.set_corrupt_prob(0.0)
        assert faults.fault_epoch == 0

    def test_real_mutations_journal_their_footprint(self, two_switch_net):
        """A cable failure is a network mutation: the network's journal
        names the cable's ends, removed on a cut and added on a heal. A
        probability shift has no wire-end footprint and moves only the
        fault epoch."""
        net = two_switch_net
        faults = FaultModel()
        applier = ScenarioApplier(net, faults)
        wire = net.wire_at("s0", 4)
        ends = {(wire.a.node, wire.a.port), (wire.b.node, wire.b.port)}
        epoch = net.topology_epoch
        applier.apply(ChaosEvent(0, "cut", ("s0", 4)))
        delta = net.affected_since(epoch)
        assert delta.removed == ends
        assert not delta.added
        epoch = net.topology_epoch
        applier.apply(ChaosEvent(0, "heal", ("s0", 4)))
        assert net.affected_since(epoch).added == ends
        assert faults.fault_epoch == 0
        epoch = net.topology_epoch
        faults.set_drop_prob(0.25)
        assert faults.fault_epoch == 1
        assert net.topology_epoch == epoch

    def test_failed_mutation_leaves_state_and_epoch_untouched(self):
        faults = FaultModel(drop_prob=0.5)
        with pytest.raises(ValueError):
            faults.set_drop_prob(1.5)
        with pytest.raises(ValueError):
            faults.set_corrupt_prob(-0.1)
        assert faults.drop_prob == 0.5
        assert faults.corrupt_prob == 0.0
        assert faults.fault_epoch == 0

    def test_failing_iterable_is_atomic(self, two_switch_net):
        """``connect_all``, which brings a healed or revived cable back,
        leaves the network and its epoch as they were when its iterable
        raises or names a taken port partway through."""
        net = two_switch_net
        wire = net.wire_at("s0", 4)
        good = (wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        net.disconnect(wire)
        epoch, wires = net.topology_epoch, net.wires

        def poisoned():
            yield good
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            net.connect_all(poisoned())
        assert net.wire_at("s0", 4) is None
        assert (net.topology_epoch, net.wires) == (epoch, wires)

        with pytest.raises(TopologyError):
            net.connect_all([good, good])
        assert net.wire_at("s0", 4) is None
        assert (net.topology_epoch, net.wires) == (epoch, wires)

    def test_mutation_invalidates_eval_cache(self, two_switch_net):
        """The probe-evaluation cache follows the network's journal: taking
        a cable out and putting it back must change what the service
        answers."""
        net = two_switch_net
        svc = QuiescentProbeService(net, "h0", faults=FaultModel())
        # h0 @ s0:0; turn 4 -> s0 exit port 4 -> the s0:4--s1:2 cable -> s1.
        alive_before = svc.probe_switch((4,))
        wire = net.wire_at("s0", 4)
        net.disconnect(wire)
        dead = svc.probe_switch((4,))
        net.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        alive_after = svc.probe_switch((4,))
        assert alive_before is True
        assert dead is False
        assert alive_after is True


class TestMappingUnderFaults:
    def test_dead_link_hides_structure_but_stays_sound(self, ring_net):
        """A silently dead cable makes part of the network unreachable via
        that path; the ring's redundancy keeps everything mappable."""
        wire = next(
            w
            for w in ring_net.wires
            if ring_net.is_switch(w.a.node) and ring_net.is_switch(w.b.node)
        )
        n_wires = ring_net.n_wires
        ring_net.disconnect(wire)
        depth = recommended_search_depth(ring_net, "h0")
        svc = QuiescentProbeService(ring_net, "h0")
        result = BerkeleyMapper(svc, search_depth=depth, host_first=False).map()
        produced = result.network
        # The dead cable is missing from the map; everything else survives.
        assert produced.n_wires == n_wires - 1
        assert set(produced.hosts) == set(ring_net.hosts)

    def test_random_loss_degrades_gracefully(self, ring_net):
        depth = recommended_search_depth(ring_net, "h0")
        svc = QuiescentProbeService(
            ring_net, "h0", faults=FaultModel(drop_prob=0.2, seed=3)
        )
        result = BerkeleyMapper(svc, search_depth=depth, host_first=False).map()
        produced = result.network
        assert set(produced.hosts) <= set(ring_net.hosts)
        assert produced.n_switches <= ring_net.n_switches
        assert produced.n_wires <= ring_net.n_wires
