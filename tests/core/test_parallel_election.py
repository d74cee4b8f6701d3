"""Master/slave timing driver and election-mode simulation tests."""

from repro.core import election, parallel
from repro.core.election import election_runs, election_times
from repro.core.parallel import TimingSummary, repeated_times, timed_run
from repro.simulator.daemons import DaemonPlacement
from repro.topology.analysis import recommended_search_depth
from repro.topology.isomorphism import match_networks


class TestTimedRun:
    def test_basic_run(self, subcluster_c, subcluster_c_depth, subcluster_c_core):
        result = timed_run(
            subcluster_c, "C-svc", search_depth=subcluster_c_depth
        )
        assert match_networks(result.network, subcluster_c_core)
        assert result.stats.elapsed_ms > 0

    def test_placement_restricts_responders(
        self, subcluster_c, subcluster_c_depth
    ):
        placement = DaemonPlacement.sequential_fill(subcluster_c, 5)
        result = timed_run(
            subcluster_c,
            "C-svc",
            search_depth=subcluster_c_depth,
            placement=placement,
            max_explorations=200,
        )
        # only the 5 responders + the mapper host can appear
        assert result.network.n_hosts <= 6

    def test_fewer_responders_cost_more_time(
        self, subcluster_c, subcluster_c_depth
    ):
        full = timed_run(subcluster_c, "C-svc", search_depth=subcluster_c_depth)
        placement = DaemonPlacement.sequential_fill(subcluster_c, 3)
        sparse = timed_run(
            subcluster_c,
            "C-svc",
            search_depth=subcluster_c_depth,
            placement=placement,
            max_explorations=400,
        )
        assert sparse.stats.elapsed_ms > full.stats.elapsed_ms


class TestRepeatedTimes:
    def test_summary_shape(self, subcluster_c, subcluster_c_depth, monkeypatch):
        monkeypatch.setattr(parallel, "RUNS", 4)
        summary = repeated_times(subcluster_c, "C-svc", search_depth=subcluster_c_depth)
        assert isinstance(summary, TimingSummary)
        assert summary.min_ms <= summary.avg_ms <= summary.max_ms
        assert summary.runs == 4

    def test_no_jitter_means_no_spread(self, subcluster_c, subcluster_c_depth, monkeypatch):
        monkeypatch.setattr(parallel, "RUNS", 3)
        monkeypatch.setattr(parallel, "JITTER", 0.0)
        summary = repeated_times(subcluster_c, "C-svc", search_depth=subcluster_c_depth)
        assert summary.min_ms == summary.max_ms


class TestElection:
    def test_winner_is_highest_address(self, subcluster_c, subcluster_c_depth):
        out = next(election_runs(subcluster_c, (0,), search_depth=subcluster_c_depth))
        assert out.winner == sorted(subcluster_c.hosts)[-1]

    def test_all_rivals_eventually_yield_or_finish(
        self, subcluster_c, subcluster_c_depth
    ):
        out = next(election_runs(subcluster_c, (1,), search_depth=subcluster_c_depth))
        # yields are a subset of non-winner hosts.
        assert out.winner not in out.yield_times_ms
        assert set(out.yield_times_ms) <= set(subcluster_c.hosts)

    def test_election_slower_than_master_on_average(
        self, subcluster_c, subcluster_c_depth, monkeypatch
    ):
        monkeypatch.setattr(parallel, "RUNS", 4)
        monkeypatch.setattr(election, "RUNS", 4)
        master = repeated_times(subcluster_c, "C-svc", search_depth=subcluster_c_depth)
        election_summary = election_times(subcluster_c, search_depth=subcluster_c_depth)
        assert election_summary.avg_ms > master.avg_ms

    def test_deterministic_per_seed(self, subcluster_c, subcluster_c_depth):
        a = next(election_runs(subcluster_c, (7,), search_depth=subcluster_c_depth))
        b = next(election_runs(subcluster_c, (7,), search_depth=subcluster_c_depth))
        assert a.elapsed_ms == b.elapsed_ms

    def test_seed_changes_outcome(self, subcluster_c, subcluster_c_depth):
        a = next(election_runs(subcluster_c, (1,), search_depth=subcluster_c_depth))
        b = next(election_runs(subcluster_c, (2,), search_depth=subcluster_c_depth))
        assert a.elapsed_ms != b.elapsed_ms
