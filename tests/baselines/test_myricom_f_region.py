"""Myricom vs Berkeley on networks with a non-empty F region.

The Berkeley Algorithm's PRUNE stage removes F (host-free regions behind
switch-bridges) — Theorem 1 promises exactly `N − F`. The Myricom
Algorithm has no deduction to prune with: its loopback and comparison
probes work fine inside F (switch-probes cross the bridge once each way),
so it explores the *full* network, and its map() prunes F afterwards.
Both maps answer the same question, `N − F`; only Myricom pays probes
for F.
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
        myricom = MyricomMapper(svc_m, search_depth=depth).map()

        core = core_network(bridge_net)
        # Berkeley: the theorem's answer, N - F.
        assert match_networks(berkeley.network, core)
        assert berkeley.network.n_switches == 2
        # Myricom explores every switch, F included, and maps N - F too.
        assert myricom.explorations == 4
        report = match_networks(myricom.network, core)
        assert report, report.reason
