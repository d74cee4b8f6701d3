"""Differential suite: seeded incremental remap ≡ from-scratch remap.

Two daemons face identical worlds — same topology, same single-fault
scenario, same seeds — one remapping from scratch every cycle, one seeding
cycle N+1 from cycle N's map plus the delta journals. The incremental arm
must be *outcome-equivalent*: its map isomorphic to the from-scratch map
and to the effective network N−F, its route tables semantically identical
(same coverage, every route delivers, deadlock-free), while probing the
dirty region only. It is explicitly **not** byte-equivalent: a seeded map
may number switches differently, so digests and turn strings can diverge
— the assertions here are the semantic ones.

The full-NOW single-cable-cut case also pins the headline acceptance
number: the seeded remap needs ≥10x fewer probes than from-scratch.
"""

from __future__ import annotations

import pytest

from repro.chaos.oracles import effective_network
from repro.core.mapper import BerkeleyMapper, MapSeed
from repro.core.remapper import RemapperDaemon
from repro.routing.deadlock import routes_deadlock_free
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import build_full_now, build_three_tier_fat_tree
from repro.topology.isomorphism import match_networks

#: A peripheral redundant trunk on the full NOW: cutting it leaves the
#: network connected and no discovery witness crosses it, so the dirty
#: region is just the two endpoint switches.
NOW_CUT = ("A-l2-1", 2)
#: Same idea on the three-tier k=8 fat tree.
FT8_CUT = ("clos-core-0", 1)


def _arm(incremental: bool):
    """One daemon over its own copy of the world; returns all the pieces."""
    net = build_full_now()
    h0 = sorted(net.hosts)[0]
    faults = FaultModel()
    daemon = RemapperDaemon(net, h0, faults=faults, incremental=incremental)
    return net, h0, faults, daemon


def _assert_route_semantics_equal(scratch_daemon, inc_daemon, truth, faults, h0):
    """Same (src, dst) coverage, every incremental route delivers on the
    effective network, both generations deadlock-free."""
    s_tables, i_tables = scratch_daemon.current_tables, inc_daemon.current_tables
    assert s_tables is not None and i_tables is not None
    assert set(s_tables) == set(i_tables)
    for host in sorted(s_tables):
        assert set(s_tables[host].routes) == set(i_tables[host].routes), host
    assert routes_deadlock_free(s_tables)
    assert routes_deadlock_free(i_tables)
    eff = effective_network(truth, faults, h0)
    for host in sorted(i_tables):
        for dst, route in sorted(i_tables[host].routes.items()):
            path = evaluate_route(eff, host, route.turns)
            assert path.status is PathStatus.DELIVERED, (host, dst)
            assert path.delivered_to == dst


class TestFullNowSingleFaults:
    def test_single_cable_cut_differential(self):
        """The acceptance scenario: one cable cut on the full NOW."""
        arms = {}
        for incremental in (False, True):
            net, h0, faults, daemon = _arm(incremental)
            daemon.run_cycle()
            net.disconnect(net.wire_at(*NOW_CUT))
            cycle = daemon.run_cycle()
            arms[incremental] = (net, h0, faults, daemon, cycle)

        net, h0, faults, scratch, s_cycle = arms[False]
        _, _, _, inc, i_cycle = arms[True]
        assert not s_cycle.incremental and s_cycle.map_result.kept_nodes == 0
        assert i_cycle.incremental, i_cycle.seed_fallback
        assert i_cycle.map_result.kept_nodes > 0 and i_cycle.probes_saved > 0

        # Outcome equivalence: isomorphic to each other and to N - F.
        assert match_networks(inc.current_map, scratch.current_map)
        eff = effective_network(net, faults, h0)
        assert match_networks(inc.current_map, eff)
        _assert_route_semantics_equal(scratch, inc, net, faults, h0)

        # The headline number: >=10x fewer probes for a single cable cut.
        s_probes = s_cycle.map_result.stats.total_probes
        i_probes = i_cycle.map_result.stats.total_probes
        assert i_probes * 10 <= s_probes, (s_probes, i_probes)

    def test_single_dead_wire_differential(self):
        """A silently dead cable (fault-side removal, topology untouched)
        flows through the fault journal and seeds just as well."""
        arms = {}
        for incremental in (False, True):
            net, h0, faults, daemon = _arm(incremental)
            daemon.run_cycle()
            wire = net.wire_at(*NOW_CUT)
            faults.set_dead_wires([frozenset((wire.a, wire.b))])
            cycle = daemon.run_cycle()
            arms[incremental] = (net, h0, faults, daemon, cycle)

        net, h0, faults, scratch, _ = arms[False]
        _, _, _, inc, i_cycle = arms[True]
        assert i_cycle.incremental, i_cycle.seed_fallback
        assert match_networks(inc.current_map, scratch.current_map)
        assert match_networks(
            inc.current_map, effective_network(net, faults, h0)
        )
        _assert_route_semantics_equal(scratch, inc, net, faults, h0)

    def test_quiet_cycle_keeps_everything(self):
        _, _, _, daemon = _arm(True)
        first = daemon.run_cycle()
        second = daemon.run_cycle()
        assert not first.incremental  # nothing to seed from yet
        assert second.incremental and not second.changed
        assert second.map_result.kept_nodes == daemon.current_map.n_hosts + (
            daemon.current_map.n_switches
        )
        # Only the confirmation frontier was probed: one per non-mapper host.
        assert (
            second.map_result.stats.total_probes
            == daemon.current_map.n_hosts - 1
        )

    def test_healed_wire_forces_from_scratch_fallback(self):
        """Added connectivity is unseedable by construction: the daemon
        must say so and fall back, and the fallback map must still match
        the world."""
        net, h0, faults, daemon = _arm(True)
        daemon.run_cycle()
        wire = net.wire_at(*NOW_CUT)
        ends = (wire.a, wire.b)
        net.disconnect(wire)
        cut_cycle = daemon.run_cycle()
        assert cut_cycle.incremental
        net.connect(ends[0].node, ends[0].port, ends[1].node, ends[1].port)
        healed = daemon.run_cycle()
        assert not healed.incremental
        assert "added" in healed.seed_fallback
        assert match_networks(
            daemon.current_map, effective_network(net, faults, h0)
        )

    def test_unbounded_delta_forces_from_scratch_fallback(self):
        net, h0, faults, daemon = _arm(True)
        daemon.run_cycle()
        faults.set_drop_prob(0.01)
        cycle = daemon.run_cycle()
        assert not cycle.incremental
        assert "unbounded" in cycle.seed_fallback

    def test_central_cut_degenerate_seed_falls_back(self):
        """A trunk cut that dirties most of the map must not be adopted:
        multi-boundary rediscovery costs more probes than a cold run."""
        net, h0, faults, daemon = _arm(True)
        daemon.run_cycle()
        net.disconnect(net.wire_at("A-l2-0", 0))
        cycle = daemon.run_cycle()
        assert not cycle.incremental
        assert "dirty region" in cycle.seed_fallback
        assert match_networks(
            daemon.current_map, effective_network(net, faults, h0)
        )


class TestFatTreeK8:
    def test_single_cut_differential(self):
        """Mapper-level differential on the 80-switch/128-host three-tier
        fat tree (the routing pipeline is exercised on NOW above; at this
        scale the map step is the interesting arm)."""
        net = build_three_tier_fat_tree(8)
        h0 = sorted(net.hosts)[0]
        depth = recommended_search_depth(net, h0)
        svc = QuiescentProbeService(net=net, mapper=h0, faults=FaultModel())
        epoch = net.topology_epoch
        prior = BerkeleyMapper(svc, search_depth=depth).map()

        net.disconnect(net.wire_at(*FT8_CUT))
        assert net.is_connected()
        delta = net.affected_since(epoch)
        assert delta is not None and not delta.added

        base = svc.stats.total_probes
        scratch = BerkeleyMapper(svc, search_depth=depth).map()
        scratch_probes = svc.stats.total_probes - base

        seeded_mapper = BerkeleyMapper(svc, search_depth=depth)
        seeded_mapper.seed_with(
            MapSeed(
                network=prior.network,
                witnesses=prior.witnesses,
                affected=delta.removed,
                entries=prior.entry_ports,
            )
        )
        base = svc.stats.total_probes
        seeded = seeded_mapper.map()
        seeded_probes = svc.stats.total_probes - base

        assert seeded.seeded, seeded.seed_fallback
        assert seeded.kept_nodes == len(prior.witnesses)
        assert match_networks(seeded.network, scratch.network)
        assert match_networks(
            seeded.network, effective_network(net, FaultModel(), h0)
        )
        assert seeded_probes * 10 <= scratch_probes


class TestSeedValidation:
    """The defensive (no pre-computed entries) seed path still works and
    still rejects malformed seeds."""

    def test_hand_built_seed_without_entries(self):
        net = build_full_now()
        h0 = sorted(net.hosts)[0]
        depth = recommended_search_depth(net, h0)
        svc = QuiescentProbeService(net=net, mapper=h0, faults=FaultModel())
        prior = BerkeleyMapper(svc, search_depth=depth).map()
        mapper = BerkeleyMapper(svc, search_depth=depth)
        mapper.seed_with(
            MapSeed(
                network=prior.network,
                witnesses=prior.witnesses,
                affected=frozenset(),
            )
        )
        result = mapper.map()
        assert result.seeded
        assert match_networks(result.network, prior.network)

    @pytest.mark.parametrize("break_witness", [True, False])
    def test_corrupted_seed_falls_back(self, break_witness):
        net = build_full_now()
        h0 = sorted(net.hosts)[0]
        depth = recommended_search_depth(net, h0)
        svc = QuiescentProbeService(net=net, mapper=h0, faults=FaultModel())
        prior = BerkeleyMapper(svc, search_depth=depth).map()
        witnesses = dict(prior.witnesses)
        if break_witness:
            victim = sorted(n for n in witnesses if witnesses[n])[0]
            witnesses[victim] = (7, -7, 7)  # walks nowhere useful
        else:
            victim = sorted(witnesses)[-1]
            del witnesses[victim]
        mapper = BerkeleyMapper(svc, search_depth=depth)
        mapper.seed_with(
            MapSeed(
                network=prior.network,
                witnesses=witnesses,
                affected=frozenset(),
            )
        )
        result = mapper.map()
        assert not result.seeded and result.seed_fallback
        assert match_networks(result.network, prior.network)
