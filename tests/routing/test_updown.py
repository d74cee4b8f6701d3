"""UP*/DOWN* orientation tests (Section 5.5)."""

import pytest

from repro.core.remapper import map_cycle
from repro.routing.updown import orient_updown
from repro.topology.analysis import core_network
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import build_hypercube, build_subcluster
from repro.topology.isomorphism import match_networks
from tests.routing.reference_views import pick_root


class TestRootSelection:
    def test_root_is_a_switch(self, two_switch_net):
        assert pick_root(two_switch_net) in two_switch_net.switches

    def test_root_far_from_hosts(self):
        # A chain s0(h0,h1) - s1 - s2(h2,h3): s1 is the distant middle.
        b = NetworkBuilder()
        b.switches("s0", "s1", "s2")
        b.hosts("h0", "h1", "h2", "h3")
        b.attach("h0", "s0")
        b.attach("h1", "s0")
        b.attach("h2", "s2")
        b.attach("h3", "s2")
        b.link("s0", "s1")
        b.link("s1", "s2")
        assert pick_root(b.build()) == "s1"

    def test_utility_host_ignored(self, subcluster_c):
        """The root would be pulled toward the svc host if it counted."""
        root = pick_root(subcluster_c)
        assert subcluster_c.meta(root)["level"] in ("root", "l2")

    def test_no_hosts_rejected(self):
        b = NetworkBuilder()
        b.switch("s0")
        with pytest.raises(ValueError):
            pick_root(b.build(validate=False))

    @pytest.mark.xfail(
        strict=True,
        reason="a mapped network carries no host metadata, so the utility "
        "host counts inside a cycle (docs/ALGORITHM.md §5); fixing it "
        "changes installed tables and is its own issue",
    )
    def test_a_cycle_roots_where_the_paper_would(self, subcluster_c):
        """Intended: the root a remap cycle picks on its *map* is the
        switch the paper's rule picks on the fabric — utility host ignored.
        Today the map's root is the image of ``C-root-1``, the answer with
        ``ignore_utility=False``."""
        assert pick_root(subcluster_c) == "C-root-0"
        assert pick_root(subcluster_c, ignore_utility=False) == "C-root-1"
        mapped = map_cycle(subcluster_c, sorted(subcluster_c.hosts)[0])[0].network
        report = match_networks(mapped, core_network(subcluster_c))
        assert report.isomorphic
        assert report.node_map[pick_root(mapped)] == "C-root-0"


class TestOrientation:
    def test_host_wires_point_up_to_switch(self, two_switch_net):
        ori = orient_updown(two_switch_net)
        for host in two_switch_net.hosts:
            attach = two_switch_net.host_attachment(host)
            assert ori.is_up(host, attach.node)
            assert not ori.is_up(attach.node, host)

    def test_orientation_antisymmetric(self, ring_net):
        ori = orient_updown(ring_net)
        for wire in ring_net.wires:
            u, v = wire.nodes
            if u == v:
                continue
            assert ori.is_up(u, v) != ori.is_up(v, u)

    def test_root_is_global_minimum(self, ring_net):
        ori = orient_updown(ring_net)
        root_label = ori.labels[ori.root]
        assert all(
            root_label <= ori.labels[n]
            for n in ring_net.nodes
            if n in ori.labels
        )

    def test_explicit_root(self, ring_net):
        ori = orient_updown(ring_net, root="s2")
        assert ori.root == "s2"

    def test_non_switch_root_rejected(self, ring_net):
        with pytest.raises(ValueError):
            orient_updown(ring_net, root="h0")


class TestDominantRelabeling:
    def _net_with_dominant_switch(self):
        """A diamond where the far switch has no hosts: BFS from the root
        makes it a local maximum — unusable without relabeling."""
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
        return b.build()

    def test_dominant_switch_detected_and_relabeled(self):
        net = self._net_with_dominant_switch()
        ori = orient_updown(net, root="root")
        assert ori.relabeled == ["far"]
        # After relabeling, "far" is a local minimum (a valley): routes
        # climb up INTO it and descend OUT of it — a legal up-then-down.
        assert ori.is_up("left", "far")
        assert ori.is_up("right", "far")
        assert not ori.is_up("far", "left")

    def test_relabeling_can_be_disabled(self):
        net = self._net_with_dominant_switch()
        ori = orient_updown(net, root="root", relabel_dominant=False)
        assert ori.relabeled == []
        # Without the fix, "far" is a local maximum: entering it is a down
        # move and leaving it an up move — the forbidden turn.
        assert not ori.is_up("left", "far")
        assert ori.is_up("far", "left")

    def test_now_secondary_root_is_the_dominant_switch(self):
        """In each NOW subcluster the root switch NOT chosen as the BFS
        root carries no hosts and sits above the level-2 switches: it is
        exactly the locally dominant case the paper describes, and the
        heuristic restores it."""
        for name in ("A", "B", "C"):
            net = build_subcluster(name)
            ori = orient_updown(net)
            assert ori.relabeled == [f"{name}-root-1"]

    def test_hypercube_without_full_host_population(self):
        """Section 5.5 names hypercubic networks as the classic case."""
        net = build_hypercube(3, hosts_per_switch=1)
        # Remove the hosts on half the switches to expose local maxima.
        for i, host in enumerate(sorted(net.hosts)):
            if i % 2 == 1:
                net.remove_node(host)
        ori = orient_updown(net)
        # Orientation remains a valid total order regardless.
        for wire in net.wires:
            u, v = wire.nodes
            assert ori.is_up(u, v) != ori.is_up(v, u)
