"""ProbeStats accounting unit tests (the Figure 6 ledger)."""

import pytest

from repro.core.mapper_protocol import create_mapper
from repro.simulator.probes import ProbeKind, ProbeRecord, ProbeStats
from repro.simulator.stack import TraceBusLayer, build_service_stack
from repro.topology.generators import build_three_tier_fat_tree


def _record(stats: ProbeStats, rec: ProbeRecord) -> None:
    """Count one record into the ledger: the reference for the counting
    the probe engine does inline."""
    if rec.kind is ProbeKind.HOST:
        stats.host_probes += 1
        stats.host_hits += rec.hit
    else:
        stats.switch_probes += 1
        stats.switch_hits += rec.hit
    stats.elapsed_us += rec.cost_us


def _rec(kind, hit, cost=100.0, turns=(1,)):
    return ProbeRecord(kind, turns, hit, cost, "x" if hit else None)


class TestCounters:
    def test_records_partition_by_kind(self):
        s = ProbeStats()
        _record(s, _rec(ProbeKind.HOST, True))
        _record(s, _rec(ProbeKind.HOST, False))
        _record(s, _rec(ProbeKind.SWITCH, True))
        assert (s.host_probes, s.host_hits) == (2, 1)
        assert (s.switch_probes, s.switch_hits) == (1, 1)
        assert s.total_probes == 3
        assert s.total_hits == 2

    def test_elapsed_accumulates(self):
        s = ProbeStats()
        _record(s, _rec(ProbeKind.HOST, True, cost=250.0))
        _record(s, _rec(ProbeKind.SWITCH, False, cost=750.0))
        assert s.elapsed_us == 1000.0
        assert s.elapsed_ms == 1.0

    def test_ratios_guard_zero(self):
        s = ProbeStats()
        assert s.host_hit_ratio == 0.0
        assert s.switch_hit_ratio == 0.0

    def test_ratios(self):
        s = ProbeStats()
        for hit in (True, True, False, False):
            _record(s, _rec(ProbeKind.HOST, hit))
        assert s.host_hit_ratio == 0.5

    def test_snapshot_is_decoupled(self):
        s = ProbeStats()
        _record(s, _rec(ProbeKind.HOST, True))
        snap = s.snapshot()
        assert snap == s and snap is not s
        _record(s, _rec(ProbeKind.HOST, True))
        assert snap.host_probes == 1


def test_the_engine_counts_what_it_publishes():
    """A whole map's ledger is its published records counted one by one,
    the float costs summed in the same order."""
    net = build_three_tier_fat_tree(4)
    seen: list[ProbeRecord] = []
    svc = build_service_stack(
        net, sorted(net.hosts)[0], layers=(TraceBusLayer((seen.append,)),)
    )
    create_mapper("berkeley", svc, radix=4, search_depth=6, host_first=False).map()
    want = ProbeStats()
    for rec in seen:
        _record(want, rec)
    assert want.total_probes > 0
    assert svc.stats == want
