"""Deadlock-freedom verification and route distribution tests."""

import pytest

from repro.routing.compile_routes import RouteTable, compile_route_tables
from repro.routing.deadlock import dependency_cycle, routes_deadlock_free
from repro.routing.incremental import distribute_incremental
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.simulator.path_eval import Traversal
from repro.topology.generators import build_hypercube, build_ring, build_torus
from repro.topology.model import PortRef
from tests.routing.reference_deadlock import channel_dependency_graph, flat_route


def _updown_tables(net):
    ori = orient_updown(net)
    paths = all_pairs_updown_paths(net, ori)
    return compile_route_tables(net, paths)


class TestDeadlockFreedom:
    @pytest.mark.parametrize(
        "net_builder",
        [
            lambda: build_ring(5, hosts_per_switch=1),
            lambda: build_ring(4, hosts_per_switch=2),
            lambda: build_torus(3, 3, hosts_per_switch=1),
            lambda: build_hypercube(3, hosts_per_switch=1),
        ],
    )
    def test_updown_routes_always_deadlock_free(self, net_builder):
        """The UP*/DOWN* theorem, verified by the Dally-Seitz condition."""
        net = net_builder()
        tables = _updown_tables(net)
        assert routes_deadlock_free(tables)

    def test_unrestricted_ring_routes_have_cycle(self):
        """The motivating contrast: clockwise two-hop routes around a ring
        make every ring channel wait on the next one — the textbook
        wormhole deadlock that UP*/DOWN* exists to prevent."""
        net = build_ring(4, hosts_per_switch=1)

        def ring_traversal(i: int) -> Traversal:
            si, sj = f"ring-s{i}", f"ring-s{(i + 1) % 4}"
            wire = next(
                w for w in net.wires_of(si) if {w.a.node, w.b.node} == {si, sj}
            )
            end_i = wire.a if wire.a.node == si else wire.b
            return Traversal(end_i, wire.other_end(end_i))

        routes = []
        for i in range(4):
            k = (i + 2) % 4
            host_i, host_k = f"ring-n{i:03d}", f"ring-n{k:03d}"
            attach_k = net.host_attachment(host_k)
            trs = (
                Traversal(PortRef(host_i, 0), net.host_attachment(host_i)),
                ring_traversal(i),
                ring_traversal((i + 1) % 4),
                Traversal(attach_k, PortRef(host_k, 0)),
            )
            routes.append(flat_route(host_i, host_k, turns=(), traversals=trs))
        cycle = dependency_cycle(routes)
        assert cycle is not None
        assert not routes_deadlock_free(routes)

    def test_dependency_graph_structure(self, ring_net):
        tables = _updown_tables(ring_net)
        routes = [r for t in tables.values() for r in t.routes.values()]
        g = channel_dependency_graph(routes)
        # Every node in the CDG is a directed channel (pair of PortRefs).
        for node in g.nodes:
            assert len(node) == 2

    def test_empty_routes_trivially_safe(self):
        assert routes_deadlock_free([])


class TestDistribution:
    def test_all_tables_delivered(self, ring_net):
        tables = _updown_tables(ring_net)
        report = distribute_incremental(ring_net, "h0", tables, None)
        assert report.ok
        assert set(report.delivered) == set(ring_net.hosts)
        assert report.bytes_sent > 0
        assert report.elapsed_ms > 0

    def test_distribution_uses_computed_routes(self, ring_net):
        tables = _updown_tables(ring_net)
        # Sabotage the mapper's route to one host: distribution must
        # report the failure rather than cheat. A compiled table is a
        # read-only view, so the sabotaged one is built by hand.
        broken = dict(tables)
        victim = sorted(h for h in ring_net.hosts if h != "h0")[0]
        broken["h0"] = RouteTable(
            "h0", {d: r for d, r in tables["h0"].routes.items() if d != victim}
        )
        report = distribute_incremental(ring_net, "h0", broken, None)
        assert victim in report.failed
        assert not report.ok
