"""LASH layered shortest-path routing tests."""

import networkx as nx
import pytest

from repro.routing.compile_routes import compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.lash import lash_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.quality import analyze_routes
from repro.routing.updown import orient_updown
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.topology.generators import build_hypercube, build_ring, build_torus


class TestCorrectness:
    @pytest.mark.parametrize(
        "net_builder",
        [
            lambda: build_ring(6, hosts_per_switch=1),
            lambda: build_torus(3, 3, hosts_per_switch=1),
            lambda: build_hypercube(3, hosts_per_switch=1),
        ],
    )
    def test_all_pairs_routed_and_deliver(self, net_builder):
        net = net_builder()
        routing = lash_route_tables(net)
        hosts = sorted(net.hosts)
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                route = routing.tables[src].routes[dst]
                out = evaluate_route(net, src, route.turns)
                assert out.status is PathStatus.DELIVERED
                assert out.delivered_to == dst

    def test_every_layer_is_deadlock_free(self, ring_net):
        routing = lash_route_tables(ring_net)
        for layer in range(routing.n_layers):
            routes = routing.layer_routes(layer)
            assert routes_deadlock_free(routes), f"layer {layer} cyclic"

    def test_routes_are_shortest(self, ring_net):
        """LASH's whole point: zero path inflation."""
        g = nx.Graph(ring_net.to_networkx())
        routing = lash_route_tables(ring_net)
        for src, table in routing.tables.items():
            plain = nx.single_source_shortest_path_length(g, src)
            for dst, route in table.routes.items():
                assert route.hops == plain[dst]

    def test_layer_assignment_covers_all_pairs(self, ring_net):
        routing = lash_route_tables(ring_net)
        hosts = sorted(ring_net.hosts)
        assert set(routing.layer_of) == {
            (s, d) for s in hosts for d in hosts if s != d
        }

    def test_deterministic_per_seed(self, ring_net):
        a = lash_route_tables(ring_net, seed=5)
        b = lash_route_tables(ring_net, seed=5)
        assert a.layer_of == b.layer_of

    def test_layer_cap_enforced(self, ring_net):
        with pytest.raises(ValueError, match="layers"):
            lash_route_tables(ring_net, max_layers=0)


class TestVersusUpDown:
    def test_ring_needs_layers_but_wins_on_length(self):
        """On a ring, UP*/DOWN* inflates paths (the dead label-max edge);
        LASH keeps them minimal at the price of >= 2 virtual layers."""
        net = build_ring(8, hosts_per_switch=1)
        routing = lash_route_tables(net)
        assert routing.n_layers >= 2  # minimal ring routes must deadlock in one layer

        ori = orient_updown(net)
        paths = all_pairs_updown_paths(net, ori)
        ud_tables = compile_route_tables(net, paths)
        ud_quality = analyze_routes(net, ud_tables, ori)
        assert ud_quality.max_path_inflation > 1.0

        lash_quality = analyze_routes(net, routing.tables)
        assert lash_quality.max_path_inflation == 1.0

    def test_tree_like_needs_one_layer(self, subcluster_c):
        """On the NOW fat tree shortest paths barely conflict: LASH should
        need very few layers."""
        routing = lash_route_tables(subcluster_c)
        assert routing.n_layers <= 2
