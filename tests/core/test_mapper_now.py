"""Berkeley mapper on the NOW configurations (the paper's real workload)."""

import pytest

from repro.core.mapper import BerkeleyMapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.isomorphism import match_networks


class TestSubclusterC:
    def test_map_isomorphic_to_core(self, mapped_c, subcluster_c_core):
        report = match_networks(mapped_c.network, subcluster_c_core)
        assert report, report.reason

    def test_component_counts(self, mapped_c):
        net = mapped_c.network
        assert (net.n_hosts, net.n_switches, net.n_wires) == (36, 13, 64)

    def test_all_hosts_by_name(self, mapped_c, subcluster_c):
        assert set(mapped_c.network.hosts) == set(subcluster_c.hosts)

    def test_probe_count_magnitude(self, mapped_c):
        """Within small factors of the paper's 450 total messages for C."""
        total = mapped_c.stats.total_probes
        assert 300 <= total <= 1500

    def test_hit_ratios_in_plausible_band(self, mapped_c):
        s = mapped_c.stats
        assert 0.15 <= s.host_hit_ratio <= 0.8
        assert 0.15 <= s.switch_hit_ratio <= 0.8

    def test_over_exploration_bounded(self, mapped_c):
        """Figure 8 shows ~6x over-exploration; ours must stay in that
        order of magnitude (replicates are explored before merging)."""
        assert 13 <= mapped_c.explorations <= 13 * 8

    def test_growth_trace_matches_figure8_shape(self, mapped_c):
        growth = mapped_c.growth
        peak = max(s.n_nodes for s in growth)
        final = growth[-1].n_nodes
        assert final == 49  # 36 hosts + 13 switches
        assert peak > final  # replicates existed and were merged/pruned
        assert growth[-1].n_frontier == 0

    def test_simulated_time_in_paper_band(self, mapped_c):
        """Calibrated timing: C should land in the few-hundred-ms regime
        (paper: 248-265 ms)."""
        assert 100 <= mapped_c.elapsed_ms <= 800

    def test_merges_happened(self, mapped_c):
        assert mapped_c.merges > 50


@pytest.mark.slow
class TestMapperHostChoice:
    def test_mapping_from_regular_host_matches(self, subcluster_c, subcluster_c_depth, subcluster_c_core):
        svc = QuiescentProbeService(subcluster_c, "C-n17")
        result = BerkeleyMapper(
            svc, search_depth=subcluster_c_depth, host_first=False
        ).map()
        assert match_networks(result.network, subcluster_c_core)
