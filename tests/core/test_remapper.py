"""Periodic remapping daemon tests: discover → diff → reroute."""

import pytest

from repro.chaos.oracles import effective_network
from repro.core import mapper as mapper_module
from repro.core.mapper import ExplorationLimitError
from repro.core.remapper import RemapperDaemon, map_cycle, route_cycle
from repro.service.serialize import route_tables_to_dict
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.topology.analysis import core_network
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import build_subcluster, build_three_tier_fat_tree
from repro.topology.isomorphism import match_networks
from repro.topology.serialize import network_to_dict


@pytest.fixture()
def live_net():
    """A mutable network the daemon probes across cycles."""
    b = NetworkBuilder()
    b.switches("s0", "s1", "s2")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=1)
    b.attach("h2", "s1", port=0)
    b.attach("h3", "s2", port=0)
    b.link("s0", "s1", port_a=4, port_b=4)
    b.link("s1", "s2", port_a=5, port_b=4)
    b.link("s0", "s2", port_a=5, port_b=5)
    return b.build()


class TestSteadyState:
    def test_first_cycle_computes_routes(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        cycle = daemon.run_cycle()
        assert cycle.routes_recomputed
        assert cycle.deadlock_free
        assert cycle.n_routes == 4 * 3
        assert cycle.distribution is not None and cycle.distribution.ok

    def test_unchanged_network_skips_recompute(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        second = daemon.run_cycle()
        assert not second.changed
        assert not second.routes_recomputed
        assert second.distribution is None
        assert len(daemon.history) == 2

    def test_a_renaming_map_reroutes(self):
        """A from-scratch map of a fabric a seeded map saw before is
        isomorphic to it but names its switches otherwise: nothing changed,
        yet the tables are compiled on the new map's names."""
        net = build_subcluster("C")
        daemon = RemapperDaemon(net, "C-n00", incremental=True)
        daemon.run_cycle()
        ends = ("C-l2-0", 1, "C-leaf-2", 7)
        net.disconnect(net.wire_at(*ends[:2]))
        assert daemon.run_cycle().incremental
        seeded = network_to_dict(daemon.current_map)
        net.connect(*ends)
        net.disconnect(net.wire_at(*ends[:2]))
        cycle = daemon.run_cycle()
        assert not cycle.incremental and not cycle.changed
        assert network_to_dict(cycle.map_result.network) != seeded
        assert cycle.routes_recomputed and cycle.deadlock_free
        assert daemon.current_map is cycle.map_result.network
        assert route_tables_to_dict(daemon.current_tables) == route_tables_to_dict(
            route_cycle(cycle.map_result.network)
        )

    def test_route_lookup(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        assert daemon.route("h0", "h3") is None  # before any cycle
        daemon.run_cycle()
        turns = daemon.route("h0", "h3")
        out = evaluate_route(live_net, "h0", turns)
        assert out.status is PathStatus.DELIVERED
        assert out.delivered_to == "h3"


class TestAdaptation:
    def test_host_arrival_triggers_reroute(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        live_net.add_host("h4")
        live_net.connect("h4", 0, "s2", 1)
        cycle = daemon.run_cycle()
        assert cycle.changed
        assert "h4" in cycle.diff.hosts_added
        assert cycle.routes_recomputed
        assert daemon.route("h0", "h4") is not None

    def test_cable_failure_triggers_reroute_around(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        old_route = daemon.route("h0", "h3")
        # Pull the direct s0-s2 cable; h3 stays reachable via s1.
        live_net.disconnect(live_net.wire_at("s0", 5))
        cycle = daemon.run_cycle()
        assert cycle.changed and cycle.routes_recomputed
        new_route = daemon.route("h0", "h3")
        assert new_route != old_route
        out = evaluate_route(live_net, "h0", new_route)
        assert out.delivered_to == "h3"

    def test_host_departure(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        live_net.remove_node("h2")
        cycle = daemon.run_cycle()
        assert "h2" in cycle.diff.hosts_removed
        assert daemon.route("h0", "h2") is None

    def test_history_accumulates(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        for _ in range(3):
            daemon.run_cycle()
        assert [c.index for c in daemon.history] == [0, 1, 2]
        assert daemon.history[0].changed  # first cycle always "changes"
        assert not daemon.history[2].changed

    @pytest.mark.parametrize("depth", [0, -3])
    def test_a_depth_below_one_is_refused_not_replaced(self, live_net, depth):
        """``search_depth=0`` is a given depth, not a missing one."""
        with pytest.raises(ValueError, match="at least 1"):
            map_cycle(live_net, "h0", search_depth=depth)
        with pytest.raises(ValueError, match="at least 1"):
            RemapperDaemon(live_net, "h0", search_depth=depth).run_cycle()

    def test_partitioning_cut_maps_the_near_side(self):
        # Regression: the default depth bound took the diameter of the whole
        # fabric and died with networkx's "graph is not connected".
        net = build_subcluster("C")
        for wire in list(net.wires_of("C-leaf-0")):
            if net.is_switch(wire.a.node) and net.is_switch(wire.b.node):
                net.disconnect(wire)
        assert not net.is_connected()
        daemon = RemapperDaemon(net, "C-svc")
        cycle = daemon.run_cycle()
        near = effective_network(net, FaultModel(), "C-svc")
        assert near.n_switches == net.n_switches - 1
        assert match_networks(cycle.map_result.network, core_network(near))
        assert cycle.routes_recomputed and cycle.deadlock_free
        far_hosts = set(net.hosts) - set(near.hosts)
        assert far_hosts and not far_hosts & set(daemon.current_map.hosts)


class TestExplorationLimit:
    def test_a_host_poor_fabric_fails_by_name_at_the_limit(self, monkeypatch):
        """With only the mapper host answering, nothing anchors a merge and
        the walk tree grows as 2^O(D+Q): this k=6 fat tree needs about
        19 000 explorations. The limit ends the map there, loudly."""
        monkeypatch.setattr(mapper_module, "EXPLORATION_LIMIT", 300)
        net = build_three_tier_fat_tree(6, hosts_per_edge=1)
        host = min(net.hosts)
        with pytest.raises(ExplorationLimitError, match="limit reached: 300 switch"):
            map_cycle(net, host, responders=frozenset({host}))

    def test_a_map_that_fits_the_limit_is_whole(self, live_net, monkeypatch):
        needed = map_cycle(live_net, "h0")[0].explorations
        monkeypatch.setattr(mapper_module, "EXPLORATION_LIMIT", needed)
        assert match_networks(map_cycle(live_net, "h0")[0].network, live_net)
        monkeypatch.setattr(mapper_module, "EXPLORATION_LIMIT", needed - 1)
        with pytest.raises(ExplorationLimitError):
            map_cycle(live_net, "h0")
