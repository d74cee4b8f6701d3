"""Experiment-harness tests: every figure's run() produces sane rows, and
the headline paper claims hold in our reproduction."""

import pytest

from repro.experiments import (
    ablations,
    crosstraffic_ext,
    parallel_ext,
    routing_quality,
    fig3_components,
    fig4_subcluster_map,
    fig5_full_map,
    fig6_probe_counts,
    fig7_mapping_times,
    fig8_model_growth,
    fig9_responders,
    fig10_myricom,
    routing_study,
)
from repro.core import election, parallel
from repro.core.remapper import map_cycle
from repro.extensions import crosstraffic
from repro.experiments.common import PAPER, system
from repro.topology.generators import build_subcluster


class TestFixtures:
    def test_system_cached(self):
        assert system("C") is system("C")

    def test_system_fields(self):
        fx = system("C")
        assert fx.mapper_host == "C-svc"
        assert fx.search_depth == fx.q + fx.diameter + 1
        assert fx.core.n_switches == 13

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            system("Z")


class TestFig3:
    def test_all_rows_match_paper(self):
        rows = fig3_components.run()
        assert len(rows) == 3
        assert all(r.matches_paper for r in rows)


class TestFig4:
    def test_map_verified(self):
        exp = fig4_subcluster_map.run("C")
        assert exp.verification.isomorphic
        assert "C-svc" in exp.ascii_map
        assert exp.dot_source.startswith("graph")

    def test_full_now_map_verified(self):
        exp = fig5_full_map.run()
        assert exp.verification.isomorphic
        net = exp.result.network
        assert (net.n_hosts, net.n_switches, net.n_wires) == (100, 40, 193)

    def test_cache_counters_do_not_depend_on_earlier_runs(self):
        """The eval-cache line counts this map's walks only, never walks
        an earlier experiment cached on the shared fixture's fabric."""
        before = fig4_subcluster_map.run("C").cache
        fig6_probe_counts.run()  # maps every fixture, C included
        after = fig4_subcluster_map.run("C").cache
        fixture = system("C")
        _, cold = map_cycle(
            build_subcluster("C"),
            fixture.mapper_host,
            search_depth=fixture.search_depth,
        )
        assert before == after == cold.eval_cache_stats
        assert after.misses > 0


class TestFig6:
    def test_counts_scale_superlinearly(self):
        rows = fig6_probe_counts.run()
        assert [r.system for r in rows] == ["C", "C+A", "C+A+B"]
        assert all(r.map_correct for r in rows)
        totals = [r.host_probes + r.switch_probes for r in rows]
        assert totals[0] < totals[1] < totals[2]
        # Paper shape: host-hit ratio degrades with size; switch probes
        # outnumber host probes under switch-first pairing.
        assert rows[0].host_ratio > rows[2].host_ratio
        assert all(r.switch_probes > r.host_probes for r in rows)


class TestFig7:
    def test_times_in_the_paper_regime(self, monkeypatch):
        monkeypatch.setattr(parallel, "RUNS", 3)
        monkeypatch.setattr(election, "RUNS", 3)
        rows = fig7_mapping_times.run()
        for row in rows:
            # Election mode costs more on average, as the paper reports.
            assert row.election.avg_ms > row.master.avg_ms, row.system
            assert row.master.min_ms <= row.master.avg_ms <= row.master.max_ms
        # Hundreds of ms (paper: 256 / 522 / 1011 master averages).
        by_system = {r.system: r for r in rows}
        assert 100 <= by_system["C"].master.avg_ms <= 900
        assert by_system["C+A+B"].master.avg_ms > by_system["C"].master.avg_ms


class TestFig8:
    def test_growth_headlines(self):
        for name, nodes in (("C", 49), ("C+A+B", 140)):
            exp = fig8_model_growth.run(name)
            assert exp.final_nodes == exp.actual_nodes == nodes
            # Peak >> final (paper: ~750 on the full system).
            assert exp.peak_nodes > 1.5 * exp.final_nodes
            assert exp.samples[-1].n_frontier == 0
            # The paper's top line is the edge count: it dominates the nodes.
            assert all(s.n_edges >= s.n_nodes - 1 for s in exp.samples[5:])
        text = fig8_model_growth.render_series(exp.samples, every=10)
        assert "exploration" in text


class TestFig9:
    def test_speedup_shape(self, monkeypatch):
        monkeypatch.setattr(fig9_responders, "MAX_EXPLORATIONS", 300)
        points = fig9_responders.run("C", counts=(1, 5, 20, 36))
        seq = {p.n_responders: p for p in points if p.placement == "sequential"}
        assert seq[1].elapsed_ms > seq[36].elapsed_ms
        speedup = seq[1].elapsed_ms / seq[36].elapsed_ms
        assert speedup > 2.0  # ~8x on the full system; smaller on C alone

    def test_full_system_speedup_band(self):
        """The paper's numbers need all three subclusters: the 8x headline,
        the random-placement knee and the sequential-fill steps."""
        points = fig9_responders.run("C+A+B", counts=(1, 15, 20, 40, 100))
        seq = {p.n_responders: p for p in points if p.placement == "sequential"}
        rnd = {p.n_responders: p for p in points if p.placement == "random"}
        # "~8x speedup from 1 to 100 responders."
        assert 4.0 <= seq[1].elapsed_ms / seq[100].elapsed_ms <= 16.0
        # "After 15 randomly-placed mappers ... within a factor of 2 of its
        # minimum, and after 20 the time is within a factor of 1.5."
        minimum = min(p.elapsed_ms for p in points)
        assert rnd[15].elapsed_ms <= 2.0 * minimum
        assert rnd[20].elapsed_ms <= 1.6 * minimum
        # Sequential fill steps: a host inside an already-covered subcluster
        # helps far less than the first host of a new one.
        assert seq[40].elapsed_ms < 0.5 * seq[15].elapsed_ms


class TestFig10:
    def test_myricom_ratios(self):
        rows = fig10_myricom.run()
        row = rows[0]
        assert row.system == "C"
        assert row.myricom_correct
        assert 2.0 <= row.msg_ratio <= 8.0  # paper: 3.2x
        assert 2.0 <= row.time_ratio <= 9.0  # paper: 5.5x
        assert row.breakdown.total == (
            row.breakdown.loop
            + row.breakdown.host
            + row.breakdown.switch
            + row.breakdown.compare
        )
        # Paper: 3.2x / 3.6x / 5.4x messages, 5.5x / 3.9x / 3.9x time —
        # integer factors on every system, and the message ratio grows with
        # size (the O(N^2) compare term).
        for row in rows:
            assert row.myricom_correct, row.system
            assert 2.0 <= row.msg_ratio <= 10.0, row.system
            assert 2.0 <= row.time_ratio <= 10.0, row.system
        assert rows[-1].system == "C+A+B"
        assert rows[-1].msg_ratio >= rows[0].msg_ratio * 0.9


class TestRoutingStudy:
    def test_full_pipeline_on_c(self):
        self._check(("C",))

    def test_full_pipeline_on_the_larger_systems(self):
        self._check(("C+A", "C+A+B"))

    @staticmethod
    def _check(systems):
        rows = routing_study.run(systems=systems)
        assert tuple(r.system for r in rows) == systems
        for row in rows:
            assert row.deadlock_free, row.system
            assert row.routes == row.host_pairs, row.system
            assert row.routes_valid_on_actual == row.routes, row.system
            assert row.distribution_ok, row.system


class TestAblations:
    def test_ablation_table_on_c(self):
        rows = ablations.run("C")
        by_name = {r.variant: r for r in rows}
        smart = by_name["planner: heuristic"].probes
        # Section 3.3: window pruning alone must save at least ~25%.
        assert smart < by_name["planner: naive"].probes * 0.8
        # Section 6: hardware identity support is the cheapest of all.
        assert by_name["self-identifying switches"].probes < smart / 2
        # Cut-through succeeds where circuit self-deadlocks, so it finds at
        # least comparably many probe paths.
        assert (
            by_name["collision: cut-through slack=1"].probes
            >= by_name["collision: circuit"].probes * 0.5
        )
        assert all(r.correct for r in rows)


class TestCrossTrafficExt:
    def test_clean_point_correct(self, monkeypatch):
        monkeypatch.setattr(crosstraffic_ext, "RATES", (0.0,))
        monkeypatch.setattr(crosstraffic, "RETRIES", (0,))
        points = crosstraffic_ext.run("C")
        assert points[0].correct and points[0].completeness == 1.0

    def test_heavy_traffic_only_omits(self, monkeypatch):
        """Every produced element is real (the study embeds the partial map
        in the truth), so traffic can only cost completeness."""
        monkeypatch.setattr(crosstraffic_ext, "RATES", (80.0,))
        monkeypatch.setattr(crosstraffic, "RETRIES", (0,))
        (heavy,) = crosstraffic_ext.run("C")
        assert heavy.probes_lost > 0
        assert heavy.completeness <= 1.0


class TestRoutingQuality:
    def test_quality_claims(self):
        rows = routing_quality.run()
        by_name = {r.topology: r for r in rows}
        assert by_name["NOW subcluster C"].root_congestion < 1.0
        assert by_name["6-switch ring"].root_congestion > 1.0
        assert by_name["diamond (relabel on)"].relabeled == 1
        assert by_name["diamond (relabel off)"].relabeled == 0
        # UP*/DOWN* paths on these topologies are near-shortest.
        assert all(r.mean_inflation < 1.3 for r in rows)

    def test_spread_uses_multiple_cables(self):
        spread = routing_quality.spread_demo()
        ((_pair, counts),) = spread.items()
        assert sum(1 for c in counts if c > 0) >= 2

    def test_lash_removes_the_ring_inflation(self):
        """Section 6 alternative-scheme comparison: LASH removes the ring's
        path inflation at the cost of a second virtual layer."""
        schemes = {
            (r.topology, r.scheme): r for r in routing_quality.compare_schemes()
        }
        assert schemes[("8-switch ring", "UP*/DOWN*")].max_inflation > 1.0
        assert schemes[("8-switch ring", "LASH")].max_inflation == 1.0
        assert schemes[("8-switch ring", "LASH")].virtual_layers >= 2
        assert all(r.deadlock_free for r in schemes.values())


class TestParallelExt:
    def test_parallel_beats_single_on_wall_clock(self, monkeypatch):
        monkeypatch.setattr(parallel_ext, "LOCAL_DEPTH", 6)
        monkeypatch.setattr(parallel_ext, "MAX_EXPLORATIONS", 80)
        rows = parallel_ext.run("C")
        single, parallel = rows
        assert single.complete
        assert parallel.probes > single.probes

    def test_full_system_parallel_wins_the_wall_clock(self):
        """The conjectured win needs more than one subcluster: parallel
        wall clock (max local time) beats the single deep mapper, at the
        cost of redundant total probes."""
        single, parallel = parallel_ext.run("C+A+B")
        assert single.complete and parallel.complete
        assert parallel.wall_ms < single.wall_ms
        assert parallel.probes > single.probes
