"""End-to-end behavior with non-default switch radixes.

The paper's hardware is 8-port, but the algorithm is radix-generic (the
turn alphabet, planner windows, and port spans all derive from the radix).
These tests run the whole pipeline on 4-port and 16-port fabrics.
"""

import pytest

from repro.core.mapper import BerkeleyMapper
from repro.core.planner import PortPlan, ProbePlanner
from repro.routing import (
    all_pairs_updown_paths,
    compile_route_tables,
    orient_updown,
    routes_deadlock_free,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth
from repro.topology.builder import NetworkBuilder
from repro.topology.isomorphism import match_networks


def _radix4_net():
    b = NetworkBuilder(default_radix=4)
    b.switches("s0", "s1", "s2")
    b.hosts("h0", "h1", "h2")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s1", port=0)
    b.attach("h2", "s2", port=0)
    b.link("s0", "s1", port_a=1, port_b=1)
    b.link("s1", "s2", port_a=2, port_b=1)
    b.link("s2", "s0", port_a=2, port_b=2)
    return b.build()


def _radix16_net():
    b = NetworkBuilder(default_radix=16)
    b.switches("big0", "big1")
    for i in range(10):
        b.host(f"h{i}")
    for i in range(5):
        b.attach(f"h{i}", "big0", port=i)
    for i in range(5, 10):
        b.attach(f"h{i}", "big1", port=i)
    b.link("big0", "big1", port_a=15, port_b=0)
    b.link("big0", "big1", port_a=14, port_b=1)
    return b.build()


class TestRadix4:
    def test_mapping(self):
        net = _radix4_net()
        depth = recommended_search_depth(net, "h0")
        svc = QuiescentProbeService(net, "h0")
        result = BerkeleyMapper(
            svc, search_depth=depth, host_first=False, radix=4
        ).run()
        report = match_networks(result.network, net)
        assert report, report.reason
        assert result.network.radix(result.network.switches[0]) == 4

    def test_planner_alphabet(self):
        plan = ProbePlanner(radix=4).new_plan()
        turns = set()
        while (t := plan.next_turn()) is not None:
            turns.add(t)
            plan.feed(t, False)
        assert turns == {-3, -2, -1, 1, 2, 3}

    def test_routing(self):
        net = _radix4_net()
        ori = orient_updown(net)
        paths = all_pairs_updown_paths(net, ori)
        tables = compile_route_tables(net, paths)
        assert sum(len(t) for t in tables.values()) == 6
        assert routes_deadlock_free(tables)


class TestRadix16:
    def test_mapping_wide_switch(self):
        """A 16-port switch needs turns beyond +/-7 — the alphabet must be
        derived from the radix, not hard-coded to Myrinet's."""
        net = _radix16_net()
        depth = recommended_search_depth(net, "h0")
        svc = QuiescentProbeService(net, "h0")
        result = BerkeleyMapper(
            svc, search_depth=depth, host_first=False, radix=16
        ).run()
        report = match_networks(result.network, net)
        assert report, report.reason
        assert result.network.n_wires == 12

    def test_window_arithmetic_radix16(self):
        plan = PortPlan(radix=16)
        plan.feed(15, True)  # forces entry port 0
        assert plan.entry_port_window == (0, 0)
