"""Incremental route distribution tests."""

import pytest

from repro.routing.compile_routes import RouteTable, compile_route_tables
from repro.routing.incremental import (
    diff_route_tables,
    distribute_incremental,
    route_deliveries,
)
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from tests.topology.reference_builder import NetworkBuilder


def _tables(net, seed=0):
    ori = orient_updown(net)
    paths = all_pairs_updown_paths(net, ori)
    return compile_route_tables(net, paths, seed=seed)


def route_tables_equal(
    a: dict[str, RouteTable] | None, b: dict[str, RouteTable] | None
) -> tuple[bool, str]:
    """Turn-string equality of two table generations (the differential oracle).

    Compares host -> destination -> turns. Returns ``(equal, first
    difference)``.
    """
    a = a or {}
    b = b or {}
    for host in sorted(set(a) | set(b)):
        ta, tb = a.get(host), b.get(host)
        if ta is None or tb is None:
            return False, f"host {host} present in only one generation"
        if set(ta.routes) != set(tb.routes):
            return False, f"host {host} routes to different destination sets"
        for dst in sorted(ta.routes):
            if ta.routes[dst].turns != tb.routes[dst].turns:
                return False, (
                    f"{host}->{dst}: {ta.routes[dst].turns} != "
                    f"{tb.routes[dst].turns}"
                )
    return True, ""


@pytest.fixture()
def evolving_net():
    b = NetworkBuilder()
    b.switches("s0", "s1")
    b.hosts("h0", "h1", "h2")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=1)
    b.attach("h2", "s1", port=0)
    b.link("s0", "s1", port_a=5, port_b=3)
    return b.build()


class TestDiff:
    def test_no_change_is_empty(self, evolving_net):
        tables = _tables(evolving_net)
        deltas = diff_route_tables(tables, tables)
        assert all(d.empty for d in deltas.values())

    def test_everything_new_on_first_generation(self, evolving_net):
        tables = _tables(evolving_net)
        deltas = diff_route_tables(None, tables)
        for host, delta in deltas.items():
            assert len(delta.added) == len(tables[host].routes)
            assert not delta.changed and not delta.withdrawn

    def test_new_host_appears_in_everyones_delta(self, evolving_net):
        before = _tables(evolving_net)
        evolving_net.add_host("h3")
        evolving_net.connect("h3", 0, "s1", 1)
        after = _tables(evolving_net)
        deltas = diff_route_tables(before, after)
        # Existing hosts gain exactly the route to h3 (the topology is
        # otherwise unchanged, so no other routes change).
        for host in ("h0", "h1", "h2"):
            assert "h3" in deltas[host].added
        assert len(deltas["h3"].added) == 3  # full table for the newcomer

    def test_departed_host_withdrawn(self, evolving_net):
        before = _tables(evolving_net)
        evolving_net.remove_node("h2")
        after = _tables(evolving_net)
        deltas = diff_route_tables(before, after)
        assert "h2" in deltas["h0"].withdrawn
        assert "h2" not in deltas  # nothing to send to a departed host

    def test_rerouted_pair_marked_changed(self, evolving_net):
        before = _tables(evolving_net)
        # Move the inter-switch cable: same connectivity, new turns.
        wire = evolving_net.wire_at("s0", 5)
        evolving_net.disconnect(wire)
        evolving_net.connect("s0", 7, "s1", 2)
        after = _tables(evolving_net)
        deltas = diff_route_tables(before, after)
        assert deltas["h0"].changed  # route to h2 has a new turn string


class TestIncrementalDistribution:
    def test_steady_state_costs_nothing(self, evolving_net):
        tables = _tables(evolving_net)
        report = distribute_incremental(
            evolving_net, "h0", tables, tables
        )
        assert report.ok
        assert report.bytes_sent == 0

    def test_cheaper_than_full_redistribution(self, evolving_net):
        before = _tables(evolving_net)
        evolving_net.add_host("h3")
        evolving_net.connect("h3", 0, "s1", 1)
        after = _tables(evolving_net)
        full = distribute_incremental(evolving_net, "h0", after, None)
        incremental = distribute_incremental(
            evolving_net, "h0", after, before
        )
        assert incremental.ok
        assert incremental.bytes_sent < full.bytes_sent

    def test_first_generation_equals_full(self, evolving_net):
        """With no previous generation every route is an addition: every
        host but the mapper receives its whole table."""
        tables = _tables(evolving_net)
        full = distribute_incremental(evolving_net, "h0", tables, None)
        assert full.ok and sorted(full.delivered) == sorted(tables)
        assert full.bytes_sent == 16 * sum(
            len(t.routes) for host, t in tables.items() if host != "h0"
        )


class TestRouteDeliveries:
    def test_every_pair_in_sorted_order(self, evolving_net):
        tables = _tables(evolving_net)
        hosts = sorted(tables)
        assert list(route_deliveries(tables, evolving_net)) == [
            (src, dst, None) for src in hosts for dst in hosts if dst != src
        ]

    def test_a_failure_names_how_its_route_ended(self, evolving_net):
        tables = _tables(evolving_net)
        actual = evolving_net.copy()
        actual.disconnect(actual.wire_at("s0", 5))
        judged = {(src, dst): f for src, dst, f in route_deliveries(tables, actual)}
        assert judged[("h0", "h2")] == judged[("h2", "h1")] == "no such wire"
        assert judged[("h0", "h1")] is None

    def test_a_route_that_reaches_another_host_fails(self, evolving_net):
        tables = _tables(evolving_net)
        swapped = evolving_net.copy()
        swapped.disconnect(swapped.wire_at("h0", 0))
        swapped.disconnect(swapped.wire_at("h1", 0))
        swapped.connect("h0", 0, "s0", 1)
        swapped.connect("h1", 0, "s0", 0)
        judged = {(src, dst): f for src, dst, f in route_deliveries(tables, swapped)}
        assert judged[("h2", "h0")] == judged[("h2", "h1")] == "delivered"

    def test_a_host_the_fabric_lacks_is_an_unreachable_endpoint(self, evolving_net):
        tables = _tables(evolving_net)
        actual = evolving_net.copy()
        actual.remove_node("h2")
        failed = {
            (src, dst): f
            for src, dst, f in route_deliveries(tables, actual)
            if f is not None
        }
        assert set(failed) == {
            ("h0", "h2"), ("h1", "h2"), ("h2", "h0"), ("h2", "h1")
        }
        assert set(failed.values()) == {"unreachable endpoint"}


class TestChaosDifferential:
    """Differential oracle under chaos schedules: incremental maintenance
    must be indistinguishable from recompiling everything from scratch.

    Two layers: (1) the algebra — applying a generation's delta to the old
    tables reconstructs the new ones exactly; (2) the daemon — driven
    through cut/unplug/rewire schedules, the incrementally-distributed
    tables it holds equal a full recompilation on its current map.
    """

    def _reconstruct(self, old, deltas):
        """old tables ⊕ deltas, as fresh RouteTable objects."""
        from tests.routing.reference_deadlock import flat_route

        rebuilt = {}
        for host, delta in deltas.items():
            routes = dict(old[host].routes) if host in old else {}
            for dst in delta.withdrawn:
                routes.pop(dst, None)
            for dst, turns in {**delta.added, **delta.changed}.items():
                # The wire-level trace is not part of the delta wire
                # format; equality below is on turn strings.
                routes[dst] = flat_route(host, dst, turns=turns, traversals=())
            rebuilt[host] = RouteTable(host=host, routes=routes)
        return rebuilt

    def test_delta_application_reconstructs_new_generation(self, evolving_net):
        before = _tables(evolving_net)
        # A chaos-style rewire: the inter-switch cable moves ports.
        evolving_net.disconnect(evolving_net.wire_at("s0", 5))
        evolving_net.connect("s0", 7, "s1", 2)
        after = _tables(evolving_net)
        rebuilt = self._reconstruct(
            before, diff_route_tables(before, after)
        )
        equal, why = route_tables_equal(rebuilt, after)
        assert equal, why

    @pytest.mark.parametrize(
        "scenario_events",
        [
            [("cut", ("ring-s2", 1))],
            [("unplug", ("ring-s2", 0))],
            [("cut", ("ring-s1", 1)), ("cut", ("ring-s3", 1))],
            [
                ("unplug", ("ring-n003", 0)),
                ("plug", ("ring-n003", 0, "ring-s1", 3)),
            ],
        ],
        ids=["cut", "unplug", "double-cut", "rewire-host"],
    )
    def test_daemon_tables_match_full_recompile(self, scenario_events):
        """After each disturbed remap cycle, the daemon's incrementally
        distributed tables equal a from-scratch compilation of its map."""
        from repro.chaos.apply import ScenarioApplier
        from repro.chaos.scenario import ChaosEvent
        from repro.core.remapper import RemapperDaemon
        from repro.simulator.faults import FaultModel
        from repro.topology.generators import build_ring

        net = build_ring(6)
        faults = FaultModel(seed=1)
        applier = ScenarioApplier(net, faults)
        daemon = RemapperDaemon(
            net,
            "ring-n000",
            search_depth=8,
            faults=faults,
        )
        daemon.run_cycle()  # clean baseline generation
        for action, args in scenario_events:
            applier.apply(ChaosEvent(1, action, args))
        for _ in range(3):
            before = daemon.current_tables
            cycle = daemon.run_cycle()
            if cycle.routes_recomputed:
                # The algebra layer, against the live generations.
                rebuilt = self._reconstruct(
                    before or {},
                    diff_route_tables(before, daemon.current_tables),
                )
                equal, why = route_tables_equal(
                    rebuilt, daemon.current_tables
                )
                assert equal, why
            if not cycle.changed:
                break
        assert daemon.current_map is not None
        full = _tables(daemon.current_map)
        equal, why = route_tables_equal(daemon.current_tables, full)
        assert equal, why
