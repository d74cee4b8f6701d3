"""The simplified (Section 3.1) algorithm and its agreement with the
production mapper — the two presentations of the same theorem."""

import pytest

from repro.core.mapper import BerkeleyMapper, MappingError
from repro.simulator.collision import CutThroughModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.builder import NetworkBuilder
from repro.topology.isomorphism import match_networks
from tests.core.reference_labeled import LabeledMapper


def _labeled(net, mapper="h0", depth=None, **kwargs):
    depth = depth or recommended_search_depth(net, mapper)
    svc = QuiescentProbeService(net, mapper)
    return LabeledMapper(svc, search_depth=depth, host_first=False, **kwargs).run()


class TestSimplifiedAlgorithm:
    def test_single_switch(self, tiny_net):
        result = _labeled(tiny_net)
        assert match_networks(result.network, tiny_net)

    def test_two_switch_parallel_wires(self, two_switch_net):
        result = _labeled(two_switch_net)
        report = match_networks(result.network, two_switch_net)
        assert report, report.reason

    def test_ring_merges_to_fixed_point(self, ring_net):
        result = _labeled(ring_net)
        assert match_networks(result.network, ring_net)
        assert result.n_labels_final < result.n_labels_initial
        assert result.merge_rounds >= 2  # at least one productive round

    def test_f_region_pruned(self, bridge_net):
        result = _labeled(bridge_net)
        assert match_networks(result.network, core_network(bridge_net))

    def test_tree_is_full_probe_tree(self, tiny_net):
        """Unlike the production mapper, the tree keeps every replicate."""
        result = _labeled(tiny_net)
        # Tree: h0 + root switch + 2 sibling hosts + their replicated
        # switch vertices... at minimum more vertices than actual nodes.
        assert result.tree_size >= 4

    def test_tree_size_guard(self, ring_net):
        svc = QuiescentProbeService(ring_net, "h0")
        mapper = LabeledMapper(
            svc, search_depth=8, host_first=False, max_tree_size=5
        )
        with pytest.raises(MappingError, match="exponential"):
            mapper.run()


class TestAgreement:
    """M/L from the simplified algorithm == the production mapper's output
    (both isomorphic to the same core, hence to each other)."""

    @pytest.mark.parametrize(
        "fixture_name", ["tiny_net", "two_switch_net", "ring_net", "bridge_net"]
    )
    def test_same_map_both_algorithms(self, fixture_name, request):
        net = request.getfixturevalue(fixture_name)
        depth = recommended_search_depth(net, "h0")
        labeled = _labeled(net, depth=depth)
        svc = QuiescentProbeService(net, "h0")
        production = BerkeleyMapper(
            svc, search_depth=depth, host_first=False
        ).map()
        assert match_networks(labeled.network, production.network)

    def test_production_uses_fewer_probes(self, ring_net):
        depth = recommended_search_depth(ring_net, "h0")
        labeled = _labeled(ring_net, depth=depth)
        svc = QuiescentProbeService(ring_net, "h0")
        production = BerkeleyMapper(
            svc, search_depth=depth, host_first=False
        ).map()
        assert production.stats.total_probes < labeled.stats.total_probes


class TestCutThroughTheoremSide:
    def test_cut_through_empty_f(self, ring_net):
        """Theorem 1 second sentence: cut-through + F empty -> M/L iso N."""
        svc = QuiescentProbeService(
            ring_net, "h0", collision=CutThroughModel(slack_hops=1)
        )
        depth = recommended_search_depth(ring_net, "h0")
        result = LabeledMapper(svc, search_depth=depth, host_first=False).run()
        assert match_networks(result.network, ring_net)
