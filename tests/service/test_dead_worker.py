"""A dead pool worker costs one cycle, on a real process pool.

A ``ProcessPoolExecutor`` stays broken once one of its workers dies. The
server replaces the pool it owns, once per breakage: the cycle that met
the death answers ``worker-died`` and leaves the tenant's generation as it
was, and the next cycle maps on a fresh worker, so its outcome is the one
a fresh worker returns. An injected executor is the caller's and stays.
Workers are killed with SIGKILL, the way the kernel's OOM killer ends one.
The ``stats`` op counts the pools built to replace a broken one.
"""

from __future__ import annotations

import asyncio
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

from repro.service import server as server_module
from repro.service.server import MapServer
from repro.service.tenant import TenantSpec, TenantState
from tests.service.worker_slot import differing, pickled, run_fresh

RING = TenantSpec(name="ring", topology="ring", params={"size": 4, "hosts_per_switch": 1})
NOW_C = TenantSpec(name="c", topology="now-c")


class _CountingPool(ProcessPoolExecutor):
    """A process pool that counts the pools built and the jobs sent."""

    built: list["_CountingPool"] = []

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.submitted = 0
        self.built.append(self)

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    for process in list(pool._processes.values()):
        os.kill(process.pid, signal.SIGKILL)


def _recorded(state: TenantState) -> list[dict]:
    """The payloads the tenant hands the pool, in order."""
    sent: list[dict] = []
    make = state.job_payload

    def job_payload() -> dict:
        sent.append(make())
        return sent[-1]

    state.job_payload = job_payload  # type: ignore[method-assign]
    return sent


def _served(state: TenantState) -> tuple:
    return (
        state.generation,
        state.tables,
        state.tables_id,
        state.last_result_doc,
        state.net_epoch_at_last_map,
    )


async def _pool_restarts(server: MapServer) -> int:
    return (await server.handle_request({"op": "stats"}))["server"]["pool_restarts"]


def _as_fresh(outcome: dict, payload: dict) -> list[str]:
    """How a cycle's outcome differs from a fresh worker's on its payload."""
    fresh = run_fresh(pickled(payload))
    assert fresh.keys() <= outcome.keys()
    return differing({key: outcome[key] for key in fresh}, fresh)


def test_a_killed_worker_costs_one_cycle():
    ring, now_c = TenantState(RING), TenantState(NOW_C)
    sent = _recorded(ring)

    async def run():
        server = MapServer([ring, now_c], max_workers=1)
        await server.start()
        try:
            assert (await server.run_map_cycle("ring"))["adopted"] is True
            assert (await server.run_map_cycle("c"))["adopted"] is True
            before, broken = _served(ring), server._executor
            _kill_workers(broken)

            died = await server.run_map_cycle("ring")
            assert (died["ok"], died["error"], died["adopted"]) == (False, "worker-died", False)
            assert all(a is b for a, b in zip(_served(ring), before))
            assert ring.status == "degraded" and ring.maps_failed == 1
            assert server._executor is not broken

            again = await server.run_map_cycle("ring")
            assert again["adopted"] is True and ring.generation == before[0] + 1
            assert _as_fresh(again, sent[-1]) == []
            for _ in range(2):  # the other tenant keeps being adopted
                assert (await server.run_map_cycle("c"))["adopted"] is True
            assert await _pool_restarts(server) == 1
        finally:
            await server.stop()
        return len(_CountingPool.built)

    _CountingPool.built = []
    with mock.patch.object(server_module, "ProcessPoolExecutor", _CountingPool):
        assert asyncio.run(run()) == 2


def test_cycles_that_meet_one_death_build_one_pool():
    ring = TenantState(RING)
    sent = _recorded(ring)

    async def run():
        server = MapServer([ring, NOW_C], max_workers=2)
        await server.start()
        try:
            pool = server._executor
            cycles = asyncio.gather(server.run_map_cycle("ring"), server.run_map_cycle("c"))
            for _ in range(100):  # both jobs in the pool, then the death
                if pool.submitted == 2:
                    break
                await asyncio.sleep(0)
            assert pool.submitted == 2
            _kill_workers(pool)
            outcomes = await asyncio.wait_for(cycles, timeout=60)
            assert [o["error"] for o in outcomes] == ["worker-died", "worker-died"]
            assert len(_CountingPool.built) == 2 and server._executor is _CountingPool.built[1]
            again = await server.run_map_cycle("ring")
            assert again["adopted"] is True and _as_fresh(again, sent[-1]) == []
            assert (await server.run_map_cycle("c"))["adopted"] is True
            assert await _pool_restarts(server) == 1
        finally:
            await server.stop()
        return len(_CountingPool.built)

    _CountingPool.built = []
    with mock.patch.object(server_module, "ProcessPoolExecutor", _CountingPool):
        assert asyncio.run(run()) == 2


def test_an_injected_pool_is_never_replaced():
    async def run():
        with ProcessPoolExecutor(max_workers=1) as pool:
            server = MapServer([RING], executor=pool)
            await server.start()
            try:
                assert (await server.run_map_cycle("ring"))["adopted"] is True
                _kill_workers(pool)
                for _ in range(2):
                    outcome = await server.run_map_cycle("ring")
                    assert outcome["error"] == "worker-died"
                    assert server._executor is pool
                assert await _pool_restarts(server) == 0
            finally:
                await server.stop()
        return True

    assert asyncio.run(run())
