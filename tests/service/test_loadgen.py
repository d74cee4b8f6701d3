"""Load-generator tests: tenant synthesis and a real bounded burst.

The burst test is the in-suite version of the CI smoke gate: boot an
in-process server, run :func:`run_load` against it, and assert the
properties the tentpole promises — every tenant maps, route queries keep
being answered *while* remap cycles are in flight, and the report's
numbers are internally consistent.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.loadgen import LoadReport, run_load, synthetic_tenants
from repro.service.server import MapServer
from repro.service.tenant import TenantSpec, build_tenant_network


class TestSyntheticTenants:
    def test_deterministic_for_a_seed(self):
        assert synthetic_tenants(10, seed=3) == synthetic_tenants(10, seed=3)

    def test_names_and_rotation(self):
        specs = synthetic_tenants(9, seed=0)
        assert [s.name for s in specs] == [f"tenant-{i:02d}" for i in range(9)]
        assert len({s.name for s in specs}) == 9
        # The ninth tenant wraps around the rotation.
        assert specs[8].topology == specs[0].topology

    def test_random_tenants_get_distinct_fabrics(self):
        specs = [s for s in synthetic_tenants(16, seed=5) if s.topology == "random"]
        assert len(specs) == 2
        assert specs[0].params["seed"] != specs[1].params["seed"]

    def test_every_spec_builds_a_mappable_network(self):
        for spec in synthetic_tenants(8, seed=1):
            net = build_tenant_network(spec)
            assert net.n_hosts >= 2 and net.n_switches >= 1

    def test_rejects_zero_tenants(self):
        with pytest.raises(ValueError, match="at least one"):
            synthetic_tenants(0)


class TestLoadReport:
    def test_rates_and_percentiles(self):
        report = LoadReport(tenants=2, rounds=1, wall_s=2.0)
        report.maps_completed = 3
        report.map_errors = {"routing-failed": 1}
        report.route_queries = 100
        report.map_latency_s = [0.010, 0.020, 0.030, 0.040]
        report.route_latency_s = [0.001] * 10
        assert report.maps_per_s == 2.0
        assert report.routes_per_s == 50.0
        doc = report.to_dict()
        assert doc["maps_per_s"] == 2.0
        assert (doc["maps_failed"], doc["map_errors"]) == (1, {"routing-failed": 1})
        assert doc["route_p50_ms"] == 1.0
        assert doc["map_p99_ms"] == 40.0


class TestBurst:
    def test_bounded_burst_overlaps_queries_with_remaps(self):
        specs = [
            TenantSpec(name="a", topology="ring", params={"size": 4, "hosts_per_switch": 1}),
            TenantSpec(name="b", topology="mesh", params={"size": 2, "hosts_per_switch": 1}),
            TenantSpec(name="c", topology="chain", params={"size": 3, "hosts_per_switch": 1}),
        ]

        async def run():
            with ThreadPoolExecutor(max_workers=2) as pool:
                server = MapServer(specs, executor=pool)
                host, port = await server.start()
                try:
                    return await run_load(
                        host, port, rounds=2, route_clients=2, cut=False, seed=7
                    )
                finally:
                    await server.stop()

        report = asyncio.run(run())
        assert report.tenants == 3 and report.rounds == 2
        # Every tenant remapped every round, and an unchanged fabric always
        # verifies, so nothing fails.
        assert report.maps_completed == 6
        assert report.maps_failed == 0
        # Queries were served, and some of them *while* cycles were in
        # flight — the tentpole's concurrency claim.
        assert report.route_ok > 0
        assert report.overlap_queries > 0
        assert report.route_queries == report.route_ok + report.route_misses
        assert report.wall_s > 0
        doc = report.to_dict()
        assert doc["maps_completed"] == 6
        assert doc["route_p99_ms"] >= doc["route_p50_ms"]

    def test_burst_with_cuts_exercises_remap_churn(self):
        specs = [
            TenantSpec(name="a", topology="ring", params={"size": 4, "hosts_per_switch": 1}),
            TenantSpec(name="b", topology="hypercube", params={"size": 3, "hosts_per_switch": 1}),
        ]

        async def run():
            with ThreadPoolExecutor(max_workers=2) as pool:
                server = MapServer(specs, executor=pool)
                host, port = await server.start()
                try:
                    report = await run_load(
                        host, port, rounds=2, route_clients=1, cut=True, seed=11
                    )
                    statuses = {
                        name: state.status for name, state in server.tenants.items()
                    }
                    return report, statuses
                finally:
                    await server.stop()

        report, statuses = asyncio.run(run())
        # Round 0 maps from scratch; round 1 cuts one cable and remaps.
        # Ring and hypercube both stay connected after one cut, so every
        # cycle adopts and both tenants end the burst healthy.
        assert report.maps_completed == 4
        assert report.maps_failed == 0
        assert statuses == {"a": "mapped", "b": "mapped"}

    def test_the_one_failed_map_of_the_synthetic_burst_is_routing_failed(self):
        """``maps_failed: 1`` of 16 in the synthetic burst, explained: the
        rotation's ``chain`` tenant (``tenant-04``) has its mapper host on
        the end switch, ``cut auto`` takes the first sorted switch-to-switch
        wire — the one next to it — and a mapper alone behind a cut has
        nobody to route to. Deterministic, and counted under its code."""
        spec = synthetic_tenants(5)[4]
        assert (spec.name, spec.topology) == ("tenant-04", "chain")

        async def run():
            with ThreadPoolExecutor(max_workers=1) as pool:
                server = MapServer([spec], executor=pool)
                host, port = await server.start()
                try:
                    return await run_load(host, port, rounds=2, route_clients=1, cut=True)
                finally:
                    await server.stop()

        report = asyncio.run(run())
        assert report.maps_completed == 1
        assert report.map_errors == {"routing-failed": 1}
        assert report.to_dict()["maps_failed"] == 1

    def test_empty_server_is_rejected(self):
        async def run():
            server = MapServer([], executor=ThreadPoolExecutor(max_workers=1))
            host, port = await server.start()
            try:
                with pytest.raises(ValueError, match="no tenants"):
                    await run_load(host, port, rounds=1)
            finally:
                await server.stop()

        asyncio.run(run())
