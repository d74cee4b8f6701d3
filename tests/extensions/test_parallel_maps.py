"""Parallel mapping and partial-map merging tests (Section 6)."""

import pytest

from repro.extensions.parallel_maps import (
    MergeConflict,
    PartialMap,
    map_local_region,
    merge_partial_maps,
    parallel_mapping_study,
)
from repro.topology.analysis import core_network, recommended_search_depth
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import build_subcluster
from repro.topology.isomorphism import match_networks


def _view(builder_fn) -> PartialMap:
    net = builder_fn()
    return PartialMap(owner=sorted(net.hosts)[0], network=net, probes=0,
                      elapsed_ms=0.0)


def _left_view():
    b = NetworkBuilder()
    b.switches("sA", "sB")
    b.hosts("h0", "h1", "h2")
    b.attach("h0", "sA", port=0)
    b.attach("h1", "sA", port=1)
    b.attach("h2", "sB", port=0)
    b.link("sA", "sB", port_a=4, port_b=3)
    return b.build()


def _right_view():
    # The same physical region seen by another mapper: switch names differ
    # and all of its ports are shifted, plus it knows one more switch.
    b = NetworkBuilder()
    b.switches("x1", "x2", "x3")
    b.hosts("h1", "h2", "h3")
    b.attach("h1", "x1", port=3)  # sA shifted by +2
    b.attach("h2", "x2", port=1)  # sB shifted by +1
    b.link("x1", "x2", port_a=6, port_b=4)
    b.link("x2", "x3", port_a=5, port_b=0)
    b.attach("h3", "x3", port=2)
    return b.build()


class TestMergeMechanics:
    def test_single_view_passthrough(self):
        views = [_view(_left_view)]
        (merged,) = merge_partial_maps(views)
        assert match_networks(merged, _left_view())

    def test_two_overlapping_views_union(self):
        (merged,) = merge_partial_maps([_view(_left_view), _view(_right_view)])
        # Union: 4 hosts, 3 switches, wires = 4 host links + 2 switch links.
        assert merged.n_hosts == 4
        assert merged.n_switches == 3
        assert merged.n_wires == 6
        # h0 (only in left) and h3 (only in right) are now in one map,
        # attached to corresponding switches.
        a0 = merged.host_attachment("h0")
        a1 = merged.host_attachment("h1")
        assert a0.node == a1.node  # both on the sA/x1 switch

    def test_merge_is_order_insensitive(self):
        a = merge_partial_maps([_view(_left_view), _view(_right_view)])
        b = merge_partial_maps([_view(_right_view), _view(_left_view)])
        assert match_networks(a[0], b[0])

    def test_disjoint_views_stay_islands(self):
        def other_region():
            b = NetworkBuilder()
            b.switch("sZ")
            b.hosts("h8", "h9")
            b.attach("h8", "sZ")
            b.attach("h9", "sZ")
            return b.build()

        islands = merge_partial_maps([_view(_left_view), _view(other_region)])
        assert len(islands) == 2

    def test_bridging_view_joins_islands(self):
        def other_region():
            b = NetworkBuilder()
            b.switch("sZ")
            b.hosts("h8", "h9")
            b.attach("h8", "sZ", port=0)
            b.attach("h9", "sZ", port=1)
            return b.build()

        def bridge():
            # Sees h2's switch and h8's switch and the cable between them.
            # Port 5 on h2's switch is free in the left view (3 holds the
            # sA cable), so the views are consistent.
            b = NetworkBuilder()
            b.switches("p", "q")
            b.hosts("h2", "h8")
            b.attach("h2", "p", port=0)
            b.attach("h8", "q", port=0)
            b.link("p", "q", port_a=5, port_b=4)
            return b.build()

        islands = merge_partial_maps(
            [_view(_left_view), _view(other_region), _view(bridge)]
        )
        assert len(islands) == 1
        merged = islands[0]
        assert {"h0", "h1", "h2", "h8", "h9"} <= set(merged.hosts)


class TestConflicts:
    def test_host_vs_switch_type_clash(self):
        def lying_view():
            # Claims the port holding h1 leads to a switch instead.
            b = NetworkBuilder()
            b.switches("sA", "zz")
            b.hosts("h0", "hx")
            b.attach("h0", "sA", port=0)
            b.link("sA", "zz", port_a=1, port_b=0)  # truth: port 1 is h1
            b.attach("hx", "zz", port=1)
            return b.build()

        with pytest.raises(MergeConflict):
            merge_partial_maps([_view(_left_view), _view(lying_view)])

    def test_satisfiable_lie_merges_into_alternative_world(self):
        """A view claiming h2 shares a switch with h1 is consistent with
        SOME physical network (switches are anonymous: the claim just
        unifies the two switches and reinterprets their cable as a
        loopback). The merge must accept it — detecting such lies is
        impossible in principle, not an implementation gap."""

        def plausible_lie():
            b = NetworkBuilder()
            b.switches("sA")
            b.hosts("h1", "h2")
            b.attach("h1", "sA", port=0)
            b.attach("h2", "sA", port=1)
            return b.build()

        (merged,) = merge_partial_maps([_view(_left_view), _view(plausible_lie)])
        # One unified switch with a loopback cable.
        assert merged.n_switches == 1
        loops = [w for w in merged.wires if w.a.node == w.b.node]
        assert len(loops) == 1

    def test_contradictory_port_spacing(self):
        def skewed_view():
            b = NetworkBuilder()
            b.switches("y")
            b.hosts("h0", "h1")
            b.attach("h0", "y", port=0)
            b.attach("h1", "y", port=2)  # left view says spacing 1
            return b.build()

        with pytest.raises(MergeConflict):
            merge_partial_maps([_view(_left_view), _view(skewed_view)])


class TestOnRealTopology:
    def test_local_views_merge_to_truth(self, subcluster_c):
        hosts = sorted(subcluster_c.hosts)
        mappers = hosts[::5] + ["C-svc"]
        report = parallel_mapping_study(
            subcluster_c, mappers, local_depth=5, max_explorations=60
        )
        assert len(report.islands) == 1
        assert match_networks(report.islands[0], core_network(subcluster_c))
        # Parallel wall clock is the max of local runs, far below the sum.
        assert report.max_local_ms < report.sum_local_ms / 2

    def test_sparse_mappers_give_partial_but_sound_map(self, subcluster_c):
        report = parallel_mapping_study(
            subcluster_c,
            ["C-n00", "C-n34"],
            local_depth=3,
            max_explorations=25,
        )
        for island in report.islands:
            assert set(island.hosts) <= set(subcluster_c.hosts)
            assert island.n_switches <= subcluster_c.n_switches

    def test_local_region_mapper_basic(self, subcluster_c):
        partial = map_local_region(
            subcluster_c, "C-n00", local_depth=2, max_explorations=10
        )
        assert partial.owner == "C-n00"
        assert "C-n00" in partial.network.hosts
        assert partial.probes > 0
