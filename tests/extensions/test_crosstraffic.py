"""Cross-traffic extension tests (Section 6 open problem)."""

import pytest

from repro.core.mapper import BerkeleyMapper
from repro.extensions import crosstraffic
from repro.extensions.crosstraffic import (
    build_crosstraffic_service,
    crosstraffic_study,
)
from repro.simulator.stack import InterferenceLayer, RetryLayer
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth


def _lost(svc) -> int:
    return svc.find_layer(InterferenceLayer).lost


class TestTrafficService:
    def test_zero_rate_identical_to_quiescent(self, ring_net):
        depth = recommended_search_depth(ring_net, "h0")
        svc_t = build_crosstraffic_service(ring_net, "h0", rate_msgs_per_ms=0.0)
        svc_q = QuiescentProbeService(ring_net, "h0")
        a = BerkeleyMapper(svc_t, search_depth=depth, host_first=False).map()
        b = BerkeleyMapper(svc_q, search_depth=depth, host_first=False).map()
        assert a.stats.total_probes == b.stats.total_probes
        assert _lost(svc_t) == 0

    def test_heavy_traffic_loses_probes(self, ring_net, monkeypatch):
        monkeypatch.setattr(crosstraffic, "TRAFFIC_SEED", 3)
        depth = recommended_search_depth(ring_net, "h0")
        svc = build_crosstraffic_service(ring_net, "h0", rate_msgs_per_ms=200.0)
        BerkeleyMapper(svc, search_depth=depth, host_first=False).map()
        assert _lost(svc) > 0

    def test_losses_never_corrupt_only_omit(self, ring_net, monkeypatch):
        """Deductions are sound: the produced map embeds in the truth."""
        monkeypatch.setattr(crosstraffic, "TRAFFIC_SEED", 5)
        depth = recommended_search_depth(ring_net, "h0")
        svc = build_crosstraffic_service(ring_net, "h0", rate_msgs_per_ms=150.0)
        result = BerkeleyMapper(svc, search_depth=depth, host_first=False).map()
        produced = result.network
        assert produced.n_hosts <= ring_net.n_hosts
        assert produced.n_switches <= ring_net.n_switches
        assert produced.n_wires <= ring_net.n_wires
        assert set(produced.hosts) <= set(ring_net.hosts)


class TestRetries:
    def test_retry_layer_counts_all_attempts(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0", layers=(RetryLayer(2),))
        assert svc.probe_host((2,)) is None  # structural miss: 3 attempts
        assert svc.stats.host_probes == 3
        assert svc.probe_host((3,)) == "h1"  # hit: 1 attempt
        assert svc.stats.host_probes == 4

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RetryLayer(-1)


class TestStudy:
    def test_study_shape_and_clean_baseline(self, ring_net, monkeypatch):
        monkeypatch.setattr(crosstraffic, "RETRIES", (0,))
        points = crosstraffic_study(
            ring_net,
            "h0",
            search_depth=recommended_search_depth(ring_net, "h0"),
            rates=(0.0, 100.0),
        )
        assert len(points) == 2
        clean, heavy = points
        assert clean.correct and clean.completeness == 1.0
        assert heavy.completeness <= 1.0
        assert heavy.probes_lost >= clean.probes_lost == 0

    def test_retries_recover_completeness(self, ring_net, monkeypatch):
        monkeypatch.setattr(crosstraffic, "RETRIES", (0, 3))
        monkeypatch.setattr(crosstraffic, "TRAFFIC_SEED", 2)
        points = crosstraffic_study(
            ring_net,
            "h0",
            search_depth=recommended_search_depth(ring_net, "h0"),
            rates=(120.0,),
        )
        no_retry, with_retry = points
        assert with_retry.completeness >= no_retry.completeness
        # Retries re-expose probes to the traffic: they lose at least
        # comparably many, never magically fewer.
        assert with_retry.probes_lost >= no_retry.probes_lost * 0.5
