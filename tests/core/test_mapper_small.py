"""Berkeley mapper on small hand-built topologies.

Each case targets one mechanism: basic discovery, replicate merging via
host anchors, index re-normalization, parallel wires, loopback cables,
F-pruning, depth limits, the exploration bound.
"""

import pytest

from repro.core.mapper import BerkeleyMapper, MappingError
from repro.simulator.collision import CutThroughModel, PacketModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import core_network, recommended_search_depth
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.isomorphism import match_networks


def _map(net, mapper="h0", depth=None, **kwargs):
    depth = depth or recommended_search_depth(net, mapper)
    svc = QuiescentProbeService(net, mapper, **{
        k: kwargs.pop(k) for k in ("collision", "responders") if k in kwargs
    })
    return BerkeleyMapper(svc, search_depth=depth, host_first=False, **kwargs).map()


class TestBasics:
    def test_single_switch(self, tiny_net):
        result = _map(tiny_net)
        assert match_networks(result.network, tiny_net)
        assert result.network.n_switches == 1
        assert set(result.network.hosts) == {"h0", "h1", "h2"}

    def test_two_switches_with_parallel_wires(self, two_switch_net):
        result = _map(two_switch_net)
        report = match_networks(result.network, two_switch_net)
        assert report, report.reason
        assert result.network.n_wires == 6

    def test_ring_produces_and_merges_replicates(self, ring_net):
        result = _map(ring_net)
        assert match_networks(result.network, ring_net)
        # A 4-ring probed in both directions necessarily creates
        # replicates that only merging can resolve.
        assert result.merges > 0
        assert result.network.n_switches == 4

    def test_map_from_each_host_is_equivalent(self, ring_net):
        for host in ring_net.hosts:
            result = _map(ring_net, mapper=host)
            assert match_networks(result.network, ring_net), host

    def test_chain_topology(self):
        b = NetworkBuilder()
        b.switches("s0", "s1", "s2")
        b.hosts("h0", "h1")
        b.attach("h0", "s0", port=2)
        b.attach("h1", "s2", port=5)
        b.link("s0", "s1", port_a=7, port_b=0)
        b.link("s1", "s2", port_a=3, port_b=1)
        net = b.build()
        result = _map(net)
        assert match_networks(result.network, net)


class TestPortGeometry:
    def test_port_offsets_recovered_up_to_shift(self, tiny_net):
        result = _map(tiny_net)
        report = match_networks(result.network, tiny_net)
        # Hosts sit at actual ports 0, 3, 7; the map's canonical offset
        # puts the minimum used index at 0, so the offset is consistent.
        offsets = set(report.port_offsets.values())
        assert len(offsets) == 1

    def test_loopback_cable(self):
        b = NetworkBuilder()
        b.switch("s0").hosts("h0", "h1")
        b.attach("h0", "s0", port=0)
        b.attach("h1", "s0", port=1)
        b.link("s0", "s0", port_a=3, port_b=6)
        net = b.build()
        result = _map(net)
        report = match_networks(result.network, net)
        assert report, report.reason
        # The loopback survives as a same-switch wire in the map.
        mapped_switch = result.network.switches[0]
        loops = [
            w
            for w in result.network.wires_of(mapped_switch)
            if w.a.node == w.b.node
        ]
        assert len(loops) == 1


class TestPruning:
    def test_f_region_pruned(self, bridge_net):
        result = _map(bridge_net)
        core = core_network(bridge_net)
        report = match_networks(result.network, core)
        assert report, report.reason
        assert result.network.n_switches == 2  # f0, f1 pruned

    def test_cut_through_with_empty_f_maps_everything(self, ring_net):
        result = _map(ring_net, collision=CutThroughModel(slack_hops=1))
        assert match_networks(result.network, ring_net)

    def test_packet_routing_also_correct(self, ring_net):
        result = _map(ring_net, collision=PacketModel())
        assert match_networks(result.network, ring_net)


class TestLimits:
    def test_depth_too_small_gives_partial_map(self, ring_net):
        result = _map(ring_net, depth=2)
        # Sound but incomplete: fewer switches than actual, no junk.
        assert result.network.n_switches <= 4
        assert not match_networks(result.network, ring_net)

    def test_exploration_bound_respected(self, ring_net):
        result = _map(ring_net, max_explorations=3)
        assert result.explorations <= 3

    def test_growth_trace_shape(self, ring_net):
        svc = QuiescentProbeService(ring_net, "h0")
        depth = recommended_search_depth(ring_net, "h0")
        result = BerkeleyMapper(
            svc, search_depth=depth, host_first=False, record_growth=True
        ).map()
        growth = result.growth
        assert growth[-1].n_frontier == 0
        assert max(s.n_nodes for s in growth) == result.peak_model_nodes
        # The final prune can only shrink the model.
        assert growth[-1].n_nodes <= max(s.n_nodes for s in growth)
        assert growth[-1].n_nodes == (
            result.network.n_hosts + result.network.n_switches
        )

    def test_invalid_depth_rejected(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        with pytest.raises(ValueError):
            BerkeleyMapper(svc, search_depth=0)


class TestResponders:
    def test_silent_hosts_missing_from_map(self, tiny_net):
        result = _map(tiny_net, responders=frozenset({"h1"}))
        assert set(result.network.hosts) == {"h0", "h1"}

    def test_mapper_host_always_present(self, tiny_net):
        result = _map(tiny_net, responders=frozenset())
        assert "h0" in result.network.hosts


class TestStats:
    def test_probe_accounting_consistency(self, two_switch_net):
        result = _map(two_switch_net)
        s = result.stats
        assert s.total_probes == s.host_probes + s.switch_probes
        assert s.total_hits <= s.total_probes
        assert s.elapsed_us > 0

    def test_switch_names_deterministic(self, two_switch_net):
        a = _map(two_switch_net)
        b = _map(two_switch_net)
        assert sorted(a.network.switches) == sorted(b.network.switches)
