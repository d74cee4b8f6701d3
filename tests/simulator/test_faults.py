"""Fault-model tests: probe loss, corruption, dead wires."""

import pytest

from repro.core.mapper import BerkeleyMapper
from repro.simulator.faults import NO_FAULTS, FaultModel
from repro.simulator.path_eval import evaluate_route
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth


class TestFaultModel:
    def test_inactive_by_default(self):
        assert not FaultModel().active
        assert not NO_FAULTS.active

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultModel(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultModel(corrupt_prob=-0.1)

    def test_drop_prob_statistics(self, tiny_net):
        faults = FaultModel(drop_prob=0.5, seed=42)
        path = evaluate_route(tiny_net, "h0", (3,))
        kills = sum(faults.kills_traversals(path.traversals) for _ in range(400))
        assert 140 < kills < 260  # ~50%

    def test_corrupt_prob_also_kills(self, tiny_net):
        faults = FaultModel(corrupt_prob=1.0)
        path = evaluate_route(tiny_net, "h0", (3,))
        assert faults.kills_traversals(path.traversals)

    def test_deterministic_per_seed(self, tiny_net):
        path = evaluate_route(tiny_net, "h0", (3,))

        def seq(seed):
            f = FaultModel(drop_prob=0.3, seed=seed)
            return [f.kills_traversals(path.traversals) for _ in range(50)]

        assert seq(7) == seq(7)
        assert seq(7) != seq(8)

    def test_dead_wire_only_affects_crossing_probes(self, two_switch_net):
        wire = two_switch_net.wire_at("s0", 4)
        faults = FaultModel(
            dead_wires=frozenset({frozenset((wire.a, wire.b))})
        )
        crossing = evaluate_route(two_switch_net, "h0", (4, 4))  # uses it
        local = evaluate_route(two_switch_net, "h0", (1,))  # does not
        assert faults.kills_traversals(crossing.traversals)
        assert not faults.kills_traversals(local.traversals)


class TestEpochMutators:
    """Mid-run reconfiguration must move state and fault_epoch atomically."""

    def test_fresh_model_starts_at_epoch_zero(self):
        assert FaultModel().fault_epoch == 0

    def test_each_mutator_bumps_epoch_once(self, two_switch_net):
        wire = two_switch_net.wire_at("s0", 4)
        faults = FaultModel()
        faults.set_drop_prob(0.25)
        assert faults.fault_epoch == 1
        assert faults.drop_prob == 0.25
        faults.set_corrupt_prob(0.1)
        assert faults.fault_epoch == 2
        assert faults.corrupt_prob == 0.1
        faults.set_dead_wires({frozenset((wire.a, wire.b))})
        assert faults.fault_epoch == 3
        assert faults.active

    def test_fault_model_epoch_counts_one_bump_per_mutation(self):
        fm = FaultModel()
        assert fm.fault_epoch == 0
        fm.set_drop_prob(0.25)
        fm.set_corrupt_prob(0.5)
        fm.set_dead_wires([frozenset({("a", 0), ("b", 1)})])
        assert fm.fault_epoch == 3
        before = fm.fault_epoch
        with pytest.raises(ValueError):
            fm.set_drop_prob(1.5)
        with pytest.raises(ValueError):
            fm.set_dead_wires([frozenset()])
        assert fm.fault_epoch == before

    def test_noop_mutations_are_bump_free(self, two_switch_net):
        """Setting the value already in place is a true no-op: no epoch
        bump, no journal entry — a wholesale applier recomputing its dead
        set must not force downstream cache flushes (regression: these
        used to bump unconditionally)."""
        wire = two_switch_net.wire_at("s0", 4)
        dead = frozenset((wire.a, wire.b))
        faults = FaultModel(drop_prob=0.5, dead_wires=frozenset({dead}))
        faults.set_drop_prob(0.5)
        faults.set_corrupt_prob(0.0)
        faults.set_dead_wires({dead})
        faults.set_dead_wires([(wire.a, wire.b)])  # same set, new spelling
        assert faults.fault_epoch == 0
        assert faults.affected_since(0).empty

    def test_real_mutations_journal_their_footprint(self, two_switch_net):
        wire = two_switch_net.wire_at("s0", 4)
        dead = frozenset((wire.a, wire.b))
        faults = FaultModel()
        faults.set_dead_wires({dead})
        delta = faults.affected_since(0)
        assert delta.removed == {
            (wire.a.node, wire.a.port),
            (wire.b.node, wire.b.port),
        }
        assert not delta.added and not delta.unbounded
        faults.set_dead_wires([])
        delta = faults.affected_since(1)
        assert delta.added == {
            (wire.a.node, wire.a.port),
            (wire.b.node, wire.b.port),
        }
        # Probability shifts have no wire-end footprint: unbounded.
        faults.set_drop_prob(0.25)
        assert faults.affected_since(2).unbounded
        # An epoch that fell out of the journal window answers None.
        assert faults.affected_since(-1) is None

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
        """set_dead_wires materializes its argument before any state moves."""
        wire = two_switch_net.wire_at("s0", 4)
        good = frozenset((wire.a, wire.b))
        faults = FaultModel(dead_wires=frozenset({good}))

        def poisoned():
            yield good
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            faults.set_dead_wires(poisoned())
        assert faults.dead_wires == frozenset({good})
        assert faults.fault_epoch == 0

        with pytest.raises(ValueError):
            faults.set_dead_wires([good, frozenset()])
        assert faults.dead_wires == frozenset({good})
        assert faults.fault_epoch == 0

    def test_mutation_invalidates_eval_cache(self, two_switch_net):
        """The probe-evaluation cache keys on fault_epoch: flipping a wire
        dead and alive again must change what the service answers."""
        faults = FaultModel()
        svc = QuiescentProbeService(two_switch_net, "h0", faults=faults)
        # h0 @ s0:0; turn 4 -> s0 exit port 4 -> the s0:4--s1:2 cable -> s1.
        alive_before = svc.probe_switch((4,))
        wire = two_switch_net.wire_at("s0", 4)
        faults.set_dead_wires({frozenset((wire.a, wire.b))})
        dead = svc.probe_switch((4,))
        faults.set_dead_wires(())
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
        faults = FaultModel(dead_wires=frozenset({frozenset((wire.a, wire.b))}))
        depth = recommended_search_depth(ring_net, "h0")
        svc = QuiescentProbeService(ring_net, "h0", faults=faults)
        result = BerkeleyMapper(svc, search_depth=depth, host_first=False).map()
        produced = result.network
        # The dead cable is missing from the map; everything else survives.
        assert produced.n_wires == ring_net.n_wires - 1
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
