"""End-to-end behavior with non-default switch radixes.

The paper's hardware is 8-port, but the algorithm is radix-generic (the
turn alphabet, planner windows, and port spans all derive from the radix).
These tests run the whole pipeline on 4-, 10- and 16-port fabrics, and on
a mixed one whose widest switch is above its default radix: every mapper
reads the radix from its probe service, the fabric's widest switch.
"""

import json
from pathlib import Path

import pytest

from repro.core.mapper import BerkeleyMapper
from repro.core.mapper_protocol import create_mapper, mapper_names
from repro.core.planner import PortPlan, ProbePlanner
from repro.core.remapper import RemapperDaemon, map_cycle
from repro.routing import (
    all_pairs_updown_paths,
    compile_route_tables,
    orient_updown,
    routes_deadlock_free,
)
from repro.service.tenant import TenantSpec, TenantState
from repro.service.workers import run_map_job
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import build_service_stack
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.generators import build_three_tier_fat_tree
from repro.topology.serialize import network_from_dict
from tests.service.worker_slot import adopt, pickled
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.isomorphism import match_networks

#: Default radix 8, but switch ``s1`` is radix 12 and wired on ports 0, 9,
#: 10 and 11: three switches, six hosts. A mapper at radix 8 never turns
#: past +/-7, so from ``s1``'s port 0 it finds nothing behind it.
MIXED_RADIX = Path(__file__).parent / "data" / "mixed_radix.json"


def _mixed_doc() -> dict:
    return json.loads(MIXED_RADIX.read_text())


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


def _radix10_net():
    """Three radix-10 switches cabled in a ring on ports 8 and 9: every
    switch-to-switch turn from a host's port 0 is 8 or 9, outside
    Myrinet's +/-7."""
    b = NetworkBuilder(default_radix=10)
    b.switches("s0", "s1", "s2")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s1", port=0)
    b.attach("h2", "s2", port=0)
    b.attach("h3", "s2", port=5)
    b.link("s0", "s1", port_a=9, port_b=8)
    b.link("s1", "s2", port_a=9, port_b=8)
    b.link("s2", "s0", port_a=9, port_b=8)
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
        ).map()
        report = match_networks(result.network, net)
        assert report, report.reason
        assert result.network.radix(result.network.switches[0]) == 4

    def test_planner_alphabet(self):
        plan = ProbePlanner().new_plan(4)
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
        ).map()
        report = match_networks(result.network, net)
        assert report, report.reason
        assert result.network.n_wires == 12

    def test_window_arithmetic_radix16(self):
        plan = PortPlan(radix=16)
        plan.feed(15, True)  # forces entry port 0
        assert plan.entry_port_window == (0, 0)


class TestRadix10:
    @pytest.mark.parametrize("name", mapper_names())
    def test_every_mapper_maps_the_core(self, name):
        """Every probe kind, the Section 6 firmware kinds included, checks
        its turns against the fabric's own alphabet, not Myrinet's."""
        net = _radix10_net()
        result, _ = map_cycle(net, "h0", mapper=name)
        report = match_networks(result.network, core_network(net))
        assert report, report.reason

    def test_registry_berkeley_maps_the_fat_tree_at_its_radix(self):
        """The quickstart's call, with no radix: the k=10 three-tier fat
        tree maps whole, at the fattree_map workload's probe count."""
        net = build_three_tier_fat_tree(10, hosts_per_edge=1)
        svc = build_service_stack(net, net.hosts[0])
        result = create_mapper("berkeley", svc, search_depth=6).map()
        assert len(result.network.switches) == 125
        assert len(result.network.hosts) == 50
        assert result.stats.total_probes == 23_848

    def test_berkeley_refuses_a_radix_its_service_does_not_have(self):
        svc = QuiescentProbeService(_radix10_net(), "h0")
        with pytest.raises(ValueError, match="radix 8 .* radix 10"):
            BerkeleyMapper(svc, search_depth=4, radix=8)


class TestMixedRadix:
    @pytest.mark.parametrize("name", mapper_names())
    def test_every_mapper_maps_it(self, name):
        net = network_from_dict(_mixed_doc())
        result, _ = map_cycle(net, "h0", mapper=name)
        report = match_networks(result.network, core_network(net))
        assert report, report.reason

    def test_daemon_maps_n_minus_f(self):
        net = network_from_dict(_mixed_doc())
        cycle = RemapperDaemon(net, "h0").run_cycle()
        report = match_networks(cycle.map_result.network, core_network(net))
        assert report, report.reason
        assert cycle.deadlock_free
        assert cycle.n_routes == 6 * 5

    def test_a_served_explicit_tenant_is_adopted(self):
        tenant = TenantState(
            TenantSpec(name="t", topology="explicit", params={"network": _mixed_doc()})
        )
        payload = tenant.job_payload()
        outcome = run_map_job(pickled(payload))
        assert outcome["ok"] and outcome["isomorphic"], outcome.get("mismatch")
        served = adopt(tenant, payload, outcome)
        assert served["adopted"]
        assert served["n_routes"] == 6 * 5
