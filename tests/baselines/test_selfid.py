"""Self-identifying-switch mapper (Section 6 hypothetical) tests."""

import pytest

from repro.baselines.selfid import SelfIdMapper
from repro.core.mapper import BerkeleyMapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth
from repro.topology.isomorphism import match_networks


def _selfid(net, mapper="h0", depth=None):
    depth = depth or recommended_search_depth(net, mapper)
    svc = QuiescentProbeService(net, mapper)
    return SelfIdMapper(svc, search_depth=depth).map()


class TestService:
    def test_id_probe_returns_switch_identity(self, two_switch_net):
        svc = QuiescentProbeService(two_switch_net, "h0")
        assert svc.probe_switch_id(()) == "s0"
        assert svc.probe_switch_id((4,)) == "s1"

    def test_id_probe_none_for_host_or_nothing(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        assert svc.probe_switch_id((3,)) is None  # a host
        assert svc.probe_switch_id((2,)) is None  # free port


class TestMapper:
    @pytest.mark.parametrize(
        "fixture_name", ["tiny_net", "two_switch_net", "ring_net"]
    )
    def test_correct_maps(self, fixture_name, request):
        net = request.getfixturevalue(fixture_name)
        result = _selfid(net)
        report = match_networks(result.network, net)
        assert report, report.reason

    def test_each_switch_explored_once(self, ring_net):
        result = _selfid(ring_net)
        assert result.explorations == 4

    def test_subcluster_c(self, subcluster_c, subcluster_c_depth, subcluster_c_core):
        svc = QuiescentProbeService(subcluster_c, "C-svc")
        mapper = SelfIdMapper(svc, search_depth=subcluster_c_depth)
        assert match_networks(mapper.map().network, subcluster_c_core)
        assert mapper.unresolved_wires == 0

    def test_lower_bound_on_probe_count(
        self, subcluster_c, subcluster_c_depth
    ):
        """Section 6: self-identification makes exploration much cheaper."""
        svc_s = QuiescentProbeService(subcluster_c, "C-svc")
        selfid = SelfIdMapper(svc_s, search_depth=subcluster_c_depth).map()
        svc_b = QuiescentProbeService(subcluster_c, "C-svc")
        berkeley = BerkeleyMapper(
            svc_b, search_depth=subcluster_c_depth, host_first=False
        ).map()
        assert selfid.stats.total_probes < berkeley.stats.total_probes / 2
