"""Concurrent multi-mapper simulation tests."""

import pytest

from repro.core.mapper_protocol import mapper_names
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.isomorphism import match_networks
from tests.core.reference_concurrent import run_concurrent_mappers


class TestEveryoneMaps:
    def test_all_mappers_produce_correct_maps(
        self, subcluster_c, subcluster_c_depth, subcluster_c_core
    ):
        mappers = ["C-n00", "C-n17", "C-svc"]
        out = run_concurrent_mappers(
            subcluster_c, mappers, search_depth=subcluster_c_depth
        )
        assert set(out.mappers) == set(mappers)
        for outcome in out.mappers.values():
            assert not outcome.yielded
            assert outcome.result is not None
            report = match_networks(outcome.result.network, subcluster_c_core)
            assert report, f"{outcome.host}: {report.reason}"

    def test_concurrency_is_sound_even_with_collisions(self, ring_net):
        """Whatever contention does, produced maps embed in the truth."""
        depth = recommended_search_depth(ring_net, "h0")
        out = run_concurrent_mappers(
            ring_net,
            list(ring_net.hosts),
            search_depth=depth,
            start_stagger_us=1.0,  # maximal overlap
        )
        for outcome in out.mappers.values():
            produced = outcome.result.network
            assert set(produced.hosts) <= set(ring_net.hosts)
            assert produced.n_switches <= ring_net.n_switches
            assert produced.n_wires <= ring_net.n_wires

    def test_deterministic(self, ring_net):
        depth = recommended_search_depth(ring_net, "h0")

        def run_once():
            out = run_concurrent_mappers(
                ring_net, ["h0", "h2"], search_depth=depth
            )
            return {
                h: (o.finished_at_us, o.result.stats.total_probes)
                for h, o in out.mappers.items()
            }

        assert run_once() == run_once()

    def test_parallel_wall_clock_close_to_solo(
        self, subcluster_c, subcluster_c_depth, mapped_c
    ):
        """Three mappers sharing the fabric barely slow each other (probe
        worms are microseconds; probes are hundreds of microseconds apart)."""
        out = run_concurrent_mappers(
            subcluster_c,
            ["C-n00", "C-n17", "C-svc"],
            search_depth=subcluster_c_depth,
        )
        assert out.elapsed_ms < mapped_c.elapsed_ms * 1.5


class TestElectionYieldRule:
    def test_only_highest_address_completes(
        self, subcluster_c, subcluster_c_depth
    ):
        mappers = ["C-n00", "C-n17", "C-svc"]
        out = run_concurrent_mappers(
            subcluster_c,
            mappers,
            search_depth=subcluster_c_depth,
            yield_rule=True,
        )
        winner = out.mappers["C-svc"]
        assert not winner.yielded
        assert winner.result is not None
        losers = [out.mappers[h] for h in ("C-n00", "C-n17")]
        assert all(l.yielded for l in losers)
        assert all(l.result is None for l in losers)

    def test_winner_map_still_correct(
        self, subcluster_c, subcluster_c_depth, subcluster_c_core
    ):
        out = run_concurrent_mappers(
            subcluster_c,
            ["C-n00", "C-n17", "C-svc"],
            search_depth=subcluster_c_depth,
            yield_rule=True,
        )
        winner = out.mappers["C-svc"].result
        # Silent rivals may cost anchors; the result must still embed in
        # the truth, and usually is complete (rivals yield early).
        assert set(winner.network.hosts) <= set(subcluster_c.hosts)

    @pytest.mark.parametrize("mapper", mapper_names())
    def test_every_registered_mapper_yields_and_the_winner_maps(
        self, mapper, subcluster_c, subcluster_c_depth, subcluster_c_core
    ):
        """Each host runs the registered mapper through ``map_cycle`` — on
        its spec's service class, stopped at its next probe once it lost
        the election, whatever that mapper's internals look like."""
        out = run_concurrent_mappers(
            subcluster_c,
            ["C-n00", "C-n17", "C-svc"],
            search_depth=subcluster_c_depth,
            yield_rule=True,
            mapper=mapper,
        )
        for loser in ("C-n00", "C-n17"):
            assert out.mappers[loser].yielded
            assert out.mappers[loser].result is None
        winner = out.mappers["C-svc"]
        assert not winner.yielded
        report = match_networks(winner.result.network, subcluster_c_core)
        assert report, f"{mapper}: {report.reason}"

    def test_requires_mappers(self, subcluster_c, subcluster_c_depth):
        with pytest.raises(ValueError):
            run_concurrent_mappers(
                subcluster_c, [], search_depth=subcluster_c_depth
            )


class TestMyricomConcurrent:
    def test_concurrent_myricom_mappers(
        self, subcluster_c, subcluster_c_depth, subcluster_c_core
    ):
        """'Both algorithms have two operational modes' (Section 4.2): the
        Myricom mapper also runs under the concurrent scheduler."""
        out = run_concurrent_mappers(
            subcluster_c,
            ["C-n00", "C-svc"],
            search_depth=subcluster_c_depth,
            mapper="myricom",
        )
        for outcome in out.mappers.values():
            assert outcome.result is not None
            report = match_networks(outcome.result.network, subcluster_c_core)
            assert report, f"{outcome.host}: {report.reason}"


class TestModelCrossValidation:
    def test_replay_election_agrees_with_full_simulation(
        self, subcluster_c, subcluster_c_depth
    ):
        """The fast replay model (core.election, used for Figure 7 sweeps)
        and the full lockstep simulation (the oracle) must land in the same regime."""
        from repro.core.election import election_runs

        replay = next(
            election_runs(subcluster_c, (0,), search_depth=subcluster_c_depth)
        )
        full = run_concurrent_mappers(
            subcluster_c,
            sorted(subcluster_c.hosts),
            search_depth=subcluster_c_depth,
            yield_rule=True,
            start_stagger_us=300.0,
        )
        winner_ms = full.mappers["C-svc"].finished_at_us / 1000.0
        assert full.mappers["C-svc"].result is not None
        ratio = replay.elapsed_ms / winner_ms
        assert 0.5 <= ratio <= 2.0, (replay.elapsed_ms, winner_ms)
