"""Route-quality metric tests: root congestion, unused switches, balance."""

import pytest

from repro.routing.compile_routes import compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.quality import analyze_routes, parallel_wire_spread
from repro.routing.updown import orient_updown
from repro.topology.builder import NetworkBuilder
from repro.topology.generators import build_subcluster
from tests.routing.reference_views import distance


def _route(net, *, relabel=True, seed=0):
    ori = orient_updown(net, relabel_dominant=relabel)
    paths = all_pairs_updown_paths(net, ori)
    tables = compile_route_tables(net, paths, seed=seed)
    return ori, tables


class TestQualityMetrics:
    def test_basic_fields(self, ring_net):
        ori, tables = _route(ring_net)
        q = analyze_routes(ring_net, tables, ori)
        assert q.n_routes == 12
        assert q.max_channel_load >= q.mean_channel_load > 0
        assert q.mean_path_inflation >= 1.0
        assert q.unused_switches == []

    def test_root_congestion_on_rings(self):
        """'Increased congestion about the root' (Section 5.5): on a ring
        the label-maximal edge opposite the root is unusable, so traffic
        funnels through the root region."""
        from repro.topology.generators import build_ring

        net = build_ring(6, hosts_per_switch=1)
        ori, tables = _route(net)
        q = analyze_routes(net, tables, ori)
        assert q.root_congestion_factor > 1.0
        # The detour around the dead edge also inflates some paths.
        assert q.max_path_inflation > 1.0

    def test_now_root_placement_avoids_congestion(self, subcluster_c):
        """The paper's own mitigation: picking a root far from all hosts
        'allows packets to flow up to the least common ancestor', so on
        the fat-tree-like NOW the root is NOT a hotspot."""
        ori, tables = _route(subcluster_c)
        q = analyze_routes(subcluster_c, tables, ori)
        assert 0.0 < q.root_congestion_factor < 1.0

    def test_dominant_switch_unused_without_relabeling(self):
        b = NetworkBuilder()
        b.switches("root", "left", "right", "far")
        b.hosts("h0", "h1", "h2", "h3")
        b.attach("h0", "left")
        b.attach("h1", "left")
        b.attach("h2", "right")
        b.attach("h3", "right")
        b.link("root", "left")
        b.link("root", "right")
        b.link("left", "far")
        b.link("right", "far")
        net = b.build()
        ori_off = orient_updown(net, root="root", relabel_dominant=False)
        paths = all_pairs_updown_paths(net, ori_off)
        tables = compile_route_tables(net, paths)
        q_off = analyze_routes(net, tables, ori_off)
        assert q_off.unused_switches == ["far"]

        ori_on, tables_on = _route(net)
        # With the fixed orientation 'far' offers an alternative valley;
        # at minimum it is no longer structurally excluded.
        paths_on = all_pairs_updown_paths(net, ori_on)
        d_via_far = distance(paths_on, "h0", "h2")
        assert d_via_far is not None

    def test_path_inflation_on_updown(self, subcluster_c):
        ori, tables = _route(subcluster_c)
        q = analyze_routes(subcluster_c, tables, ori)
        # Fat trees route near-optimally under UP*/DOWN*.
        assert q.mean_path_inflation < 1.3


class TestParallelWireSpread:
    def test_no_parallel_wires_empty(self, ring_net):
        _, tables = _route(ring_net)
        assert parallel_wire_spread(ring_net, tables) == {}

    def test_spread_reported_per_pair(self, two_switch_net):
        _, tables = _route(two_switch_net)
        spread = parallel_wire_spread(two_switch_net, tables)
        assert ("s0", "s1") in spread
        counts = spread[("s0", "s1")]
        assert len(counts) == 2
        assert sum(counts) > 0

    def test_random_choice_spreads_load(self):
        """With many parallel cables and many routes, seeded-random wire
        choice must use more than one cable."""
        b = NetworkBuilder()
        b.switches("s0", "s1")
        for i in range(6):
            b.host(f"h{i}")
        for i in range(3):
            b.attach(f"h{i}", "s0")
        for i in range(3, 6):
            b.attach(f"h{i}", "s1")
        b.link("s0", "s1")
        b.link("s0", "s1")
        b.link("s0", "s1")
        net = b.build()
        _, tables = _route(net, seed=3)
        spread = parallel_wire_spread(net, tables)[("s0", "s1")]
        used = [c for c in spread if c > 0]
        assert len(used) >= 2
