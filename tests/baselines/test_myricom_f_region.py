"""Myricom vs Berkeley on networks with a non-empty F region.

The Berkeley Algorithm's PRUNE stage removes F (host-free regions behind
switch-bridges) — Theorem 1 promises exactly `N − F`. The Myricom
Algorithm has no prune: its loopback and comparison probes work fine inside
F (switch-probes cross the bridge once each way), so it maps the *full*
network. Neither is wrong; they answer slightly different questions, and
this difference is worth pinning down in a test.
"""

from repro.baselines.myricom import MyricomMapper
from repro.core.mapper import BerkeleyMapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.isomorphism import match_networks


class TestFRegionBehavior:
    def test_myricom_maps_f_region_berkeley_prunes_it(self, bridge_net):
        depth = max(
            recommended_search_depth(bridge_net, "h0"),
            6,  # deep enough for Myricom to walk into the pendant chain
        )
        svc_b = QuiescentProbeService(bridge_net, "h0")
        berkeley = BerkeleyMapper(
            svc_b, search_depth=depth, host_first=False
        ).map()
        svc_m = QuiescentProbeService(bridge_net, "h0")
        myricom = MyricomMapper(svc_m, search_depth=depth).run()

        core = core_network(bridge_net)
        # Berkeley: the theorem's answer, N - F.
        assert match_networks(berkeley.network, core)
        assert berkeley.network.n_switches == 2
        # Myricom: the full network, F included.
        report = match_networks(myricom.network, bridge_net)
        assert report, report.reason
        assert myricom.network.n_switches == 4
