"""Myricom Algorithm (Section 4) tests."""

import pytest

from repro.baselines.myricom import MyricomMapper
from repro.core.mapper import BerkeleyMapper
from repro.core.mapper_protocol import create_mapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import build_service_stack
from repro.topology.analysis import recommended_search_depth
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.isomorphism import match_networks


def _myricom(net, mapper="h0", depth=None):
    """The map, and the mapper that made it (its probe breakdown)."""
    depth = depth or recommended_search_depth(net, mapper)
    svc = QuiescentProbeService(net, mapper)
    myricom = MyricomMapper(svc, search_depth=depth)
    return myricom.map(), myricom


class TestCorrectness:
    def test_single_switch(self, tiny_net):
        result, _ = _myricom(tiny_net)
        assert match_networks(result.network, tiny_net)

    def test_two_switches_parallel_wires(self, two_switch_net):
        result, _ = _myricom(two_switch_net)
        report = match_networks(result.network, two_switch_net)
        assert report, report.reason

    def test_ring(self, ring_net):
        result, _ = _myricom(ring_net)
        assert match_networks(result.network, ring_net)
        assert result.explorations == 4

    def test_chain(self):
        b = NetworkBuilder()
        b.switches("s0", "s1", "s2")
        b.hosts("h0", "h1")
        b.attach("h0", "s0", port=2)
        b.attach("h1", "s2", port=5)
        b.link("s0", "s1", port_a=7, port_b=0)
        b.link("s1", "s2", port_a=3, port_b=1)
        net = b.build()
        assert match_networks(_myricom(net)[0].network, net)

    def test_loopback_cable_found_by_loop_probes(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0", port=0)
        b.attach("h1", "s0", port=1)
        b.link("s0", "s0", port_a=3, port_b=6)
        net = b.build()
        result, myricom = _myricom(net)
        assert match_networks(result.network, net)
        assert myricom.breakdown.loop > 0

    def test_subcluster_c(self, subcluster_c, subcluster_c_depth, subcluster_c_core):
        result, _ = _myricom(subcluster_c, "C-svc", subcluster_c_depth)
        report = match_networks(result.network, subcluster_c_core)
        assert report, report.reason
        assert result.explorations == 13


class TestAccounting:
    def test_categories_sum_to_total(self, ring_net, subcluster_c, subcluster_c_depth):
        """Figure 10's path: a mapper built by name exposes its breakdown
        after map(), and every probe sent is in exactly one category."""
        ring_depth = recommended_search_depth(ring_net, "h0")
        for net, host, depth in (
            (ring_net, "h0", ring_depth),
            (subcluster_c, "C-svc", subcluster_c_depth),
        ):
            svc = build_service_stack(net, host)
            myricom = create_mapper("myricom", svc, search_depth=depth)
            result = myricom.map()
            b = myricom.breakdown
            assert b.total == b.loop + b.host + b.switch + b.compare
            assert b.total == result.stats.total_probes
        assert min(b.loop, b.host, b.switch, b.compare) > 0  # on subcluster C

    def test_eager_comparison_costs_more_than_berkeley(
        self, subcluster_c, subcluster_c_depth
    ):
        """Section 5.4: Myricom sends integer factors more messages."""
        _, myricom = _myricom(subcluster_c, "C-svc", subcluster_c_depth)
        svc_b = QuiescentProbeService(subcluster_c, "C-svc")
        berkeley = BerkeleyMapper(
            svc_b, search_depth=subcluster_c_depth, host_first=False
        ).map()
        ratio = myricom.breakdown.total / berkeley.stats.total_probes
        assert 2.0 <= ratio <= 8.0  # paper: 3.2x for C

    def test_compare_probes_dominate_at_scale(
        self, subcluster_c, subcluster_c_depth
    ):
        _, myricom = _myricom(subcluster_c, "C-svc", subcluster_c_depth)
        b = myricom.breakdown
        assert b.compare > b.host + b.switch  # the O(N^2) term


class TestEdgeCases:
    def test_invalid_depth(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        with pytest.raises(ValueError):
            MyricomMapper(svc, search_depth=0)

    def test_map_from_any_host(self, ring_net):
        for host in list(ring_net.hosts)[:2]:
            result, _ = _myricom(ring_net, mapper=host)
            assert match_networks(result.network, ring_net)
