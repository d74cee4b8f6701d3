"""UP*/DOWN* on disconnected maps (partial-mapping output is legal input)."""

import pytest

from repro.routing.compile_routes import compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.topology.builder import NetworkBuilder


@pytest.fixture()
def two_islands():
    b = NetworkBuilder()
    b.switches("a0", "a1", "b0")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "a0")
    b.attach("h1", "a1")
    b.link("a0", "a1")
    b.attach("h2", "b0")
    b.attach("h3", "b0")
    return b.build(validate=True)  # connected? no: skip connectivity check


class TestDisconnectedMaps:
    def test_every_node_gets_a_label(self, two_islands):
        ori = orient_updown(two_islands)
        assert set(ori.labels) == set(two_islands.nodes)

    def test_orientation_total_within_components(self, two_islands):
        ori = orient_updown(two_islands)
        for wire in two_islands.wires:
            u, v = wire.nodes
            assert ori.is_up(u, v) != ori.is_up(v, u)

    def test_intra_island_routes_only(self, two_islands):
        ori = orient_updown(two_islands)
        paths = all_pairs_updown_paths(two_islands, ori)
        tables = compile_route_tables(two_islands, paths)
        assert set(tables["h0"].routes) == {"h1"}
        assert set(tables["h2"].routes) == {"h3"}
        assert routes_deadlock_free(tables)

    def test_cross_island_distance_none(self, two_islands):
        ori = orient_updown(two_islands)
        paths = all_pairs_updown_paths(two_islands, ori)
        assert paths.distance("h0", "h2") is None
        assert paths.node_path("h0", "h2") is None
