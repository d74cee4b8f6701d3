"""ProbeStats accounting unit tests (the Figure 6 ledger)."""

import pytest

from repro.simulator.probes import ProbeKind, ProbeRecord, ProbeStats


def _rec(kind, hit, cost=100.0, turns=(1,)):
    return ProbeRecord(kind, turns, hit, cost, "x" if hit else None)


class TestCounters:
    def test_records_partition_by_kind(self):
        s = ProbeStats()
        s.record(_rec(ProbeKind.HOST, True))
        s.record(_rec(ProbeKind.HOST, False))
        s.record(_rec(ProbeKind.SWITCH, True))
        assert (s.host_probes, s.host_hits) == (2, 1)
        assert (s.switch_probes, s.switch_hits) == (1, 1)
        assert s.total_probes == 3
        assert s.total_hits == 2

    def test_elapsed_accumulates(self):
        s = ProbeStats()
        s.record(_rec(ProbeKind.HOST, True, cost=250.0))
        s.record(_rec(ProbeKind.SWITCH, False, cost=750.0))
        assert s.elapsed_us == 1000.0
        assert s.elapsed_ms == 1.0

    def test_ratios_guard_zero(self):
        s = ProbeStats()
        assert s.host_hit_ratio == 0.0
        assert s.switch_hit_ratio == 0.0

    def test_ratios(self):
        s = ProbeStats()
        for hit in (True, True, False, False):
            s.record(_rec(ProbeKind.HOST, hit))
        assert s.host_hit_ratio == 0.5

    def test_snapshot_is_decoupled(self):
        s = ProbeStats()
        s.record(_rec(ProbeKind.HOST, True))
        snap = s.snapshot()
        assert snap == s and snap is not s
        s.record(_rec(ProbeKind.HOST, True))
        assert snap.host_probes == 1
