"""Probe-trace analysis tests."""

import pytest

from repro.core.instrumentation import TraceRecorder, analyze_records, cache_summary
from repro.core.mapper import BerkeleyMapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import TraceBusLayer
from repro.topology.analysis import recommended_search_depth


@pytest.fixture()
def traced_run(subcluster_c, subcluster_c_depth):
    recorder = TraceRecorder()
    svc = QuiescentProbeService(
        subcluster_c, "C-svc", layers=(TraceBusLayer((recorder,)),)
    )
    BerkeleyMapper(svc, search_depth=subcluster_c_depth, host_first=False).run()
    return svc.stats, recorder.records


class TestAnalyzeTrace:
    def test_totals_consistent_with_stats(self, traced_run):
        stats, records = traced_run
        a = analyze_records(records)
        assert a.total == stats.total_probes
        assert a.hits == stats.total_hits
        assert a.host_probes == stats.host_probes
        assert a.switch_probes == stats.switch_probes
        assert a.answered_us + a.timeout_us == pytest.approx(stats.elapsed_us)

    def test_by_length_partitions_total(self, traced_run):
        stats, records = traced_run
        a = analyze_records(records)
        assert sum(p for p, _h in a.by_length.values()) == a.total
        assert sum(h for _p, h in a.by_length.values()) == a.hits

    def test_deep_probes_hit_less(self, traced_run):
        """The deepest probes are replicate-exploration tails: their hit
        ratio is lower than the shallow sweep's."""
        stats, records = traced_run
        a = analyze_records(records)
        lengths = sorted(a.by_length)
        shallow = a.hit_ratio_at(lengths[0])
        deep = a.hit_ratio_at(lengths[-1])
        assert deep <= shallow

    def test_timeout_share_dominates(self, traced_run):
        """With ~35% hit ratio and timeouts costing ~2.4x a response, the
        waiting time dominates the mapping time (the Section 5.2 point)."""
        stats, records = traced_run
        a = analyze_records(records)
        assert a.timeout_share > 0.5

    def test_running_cost_monotone(self, traced_run):
        stats, records = traced_run
        a = analyze_records(records)
        assert len(a.running_cost_us) == a.total
        assert all(
            b >= x for x, b in zip(a.running_cost_us, a.running_cost_us[1:])
        )
        assert a.running_cost_us[-1] == pytest.approx(stats.elapsed_us)

    def test_histogram_renders(self, traced_run):
        stats, records = traced_run
        text = analyze_records(records).histogram()
        assert text.splitlines()[0].startswith("len")
        assert len(text.splitlines()) > 3


class TestCacheSummary:
    def test_renders_live_counters(self, subcluster_c):
        svc = QuiescentProbeService(subcluster_c, "C-svc")
        svc.probe_host((1,))
        svc.probe_host((1, 2))
        line = cache_summary(svc.eval_cache_stats)
        assert line.startswith("eval cache:")
        assert "hit rate" in line
        assert "trie nodes" in line
