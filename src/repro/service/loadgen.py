"""Synthetic multi-tenant load against a running map server.

The generator plays two roles at once, because that interleaving is the
whole point of the service architecture:

- **operators**: one task per tenant runs remap rounds — optionally
  cutting a cable first, so later rounds exercise the incremental seed
  path end-to-end over the wire — and measures map-cycle latency;
- **queriers**: a pool of connections hammers ``route`` lookups across
  all tenants for the entire run and measures per-query latency,
  counting how many queries were answered *while at least one remap
  cycle was in flight* (``overlap_queries`` — the number the tentpole's
  acceptance criterion cares about).

Everything is deterministic for a given seed: tenant topologies, query
order, and cut choices all derive from seeded RNGs.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from repro.service.client import MapClient
from repro.service.server import percentile
from repro.service.tenant import TenantSpec

__all__ = ["LoadReport", "run_load", "synthetic_tenants"]

#: Small-topology rotation for synthetic tenants: cheap enough that a CI
#: smoke run maps all of them in seconds, varied enough that cycles take
#: different times (which is what makes overlap interesting).
_TOPOLOGY_ROTATION = (
    ("now-a", {}),
    ("now-b", {}),
    ("now-c", {}),
    ("ring", {"size": 4, "hosts_per_switch": 1}),
    ("chain", {"size": 4, "hosts_per_switch": 1}),
    ("mesh", {"size": 2, "hosts_per_switch": 1}),
    ("hypercube", {"size": 3, "hosts_per_switch": 1}),
    ("random", {"size": 5, "hosts_per_switch": 1}),
)


def synthetic_tenants(n: int, *, seed: int = 0) -> list[TenantSpec]:
    """N independent virtual clusters cycling over small topologies."""
    if n < 1:
        raise ValueError("need at least one tenant")
    specs = []
    for i in range(n):
        kind, params = _TOPOLOGY_ROTATION[i % len(_TOPOLOGY_ROTATION)]
        params = dict(params)
        if kind == "random":
            # Distinct random fabrics per tenant, deterministically.
            params["seed"] = seed + i
        specs.append(
            TenantSpec(
                name=f"tenant-{i:02d}",
                topology=kind,
                params=params,
                seed=seed + i,
            )
        )
    return specs


@dataclass(slots=True)
class LoadReport:
    """What the load run observed, JSON-able for the benchmark harness."""

    tenants: int
    rounds: int
    wall_s: float
    maps_completed: int = 0
    #: Failed map cycles by the outcome's error code. The synthetic burst
    #: has exactly one, by construction: the ``chain`` tenant's auto cut
    #: takes its first switch-to-switch wire, which leaves the mapper host
    #: alone behind the cut, and that cycle degrades with ``routing-failed``.
    map_errors: dict[str, int] = field(default_factory=dict)
    route_queries: int = 0
    route_ok: int = 0
    route_misses: int = 0
    #: Route queries answered while >= 1 remap cycle was in flight.
    overlap_queries: int = 0
    map_latency_s: list[float] = field(default_factory=list)
    route_latency_s: list[float] = field(default_factory=list)

    @property
    def maps_failed(self) -> int:
        return sum(self.map_errors.values())

    @property
    def maps_per_s(self) -> float:
        return (self.maps_completed + self.maps_failed) / self.wall_s

    @property
    def routes_per_s(self) -> float:
        return self.route_queries / self.wall_s

    def to_dict(self) -> dict:
        return {
            "tenants": self.tenants,
            "rounds": self.rounds,
            "wall_s": round(self.wall_s, 4),
            "maps_completed": self.maps_completed,
            "maps_failed": self.maps_failed,
            "map_errors": dict(sorted(self.map_errors.items())),
            "maps_per_s": round(self.maps_per_s, 2),
            "route_queries": self.route_queries,
            "route_ok": self.route_ok,
            "route_misses": self.route_misses,
            "routes_per_s": round(self.routes_per_s, 1),
            "overlap_queries": self.overlap_queries,
            "map_p50_ms": round(percentile(self.map_latency_s, 0.50) * 1e3, 3),
            "map_p99_ms": round(percentile(self.map_latency_s, 0.99) * 1e3, 3),
            "route_p50_ms": round(percentile(self.route_latency_s, 0.50) * 1e3, 4),
            "route_p99_ms": round(percentile(self.route_latency_s, 0.99) * 1e3, 4),
        }


async def run_load(
    host: str,
    port: int,
    *,
    rounds: int = 2,
    route_clients: int = 4,
    cut: bool = True,
    seed: int = 0,
) -> LoadReport:
    """Drive the server at ``host:port`` through a bounded burst.

    Round 0 maps every tenant from scratch; each later round optionally
    cuts a cable and remaps (exercising the incremental seed over the
    wire). Route queriers run for the whole burst. Deterministic per
    seed; returns the aggregated :class:`LoadReport`.
    """
    async with MapClient(host, port) as admin:
        listing = (await admin.request("tenants", include_hosts=True))["tenants"]
    tenants = [t["name"] for t in listing]
    hosts_by_tenant = {t["name"]: t.get("host_names", []) for t in listing}
    if not tenants:
        raise ValueError("server has no tenants to load")

    report = LoadReport(tenants=len(tenants), rounds=rounds, wall_s=0.0)
    inflight = 0  # remap cycles currently awaited by an operator task
    done = asyncio.Event()
    start = time.perf_counter()

    async def operator(name: str) -> None:
        nonlocal inflight
        async with MapClient(host, port) as client:
            for round_no in range(rounds):
                if cut and round_no > 0:
                    await client.cut(name, auto=True)
                t0 = time.perf_counter()
                inflight += 1
                try:
                    outcome = await client.map(name)
                finally:
                    inflight -= 1
                report.map_latency_s.append(time.perf_counter() - t0)
                if outcome.get("ok"):
                    report.maps_completed += 1
                else:
                    code = str(outcome.get("error"))
                    report.map_errors[code] = report.map_errors.get(code, 0) + 1

    async def querier(worker_seed: int) -> None:
        rng = random.Random(worker_seed)
        async with MapClient(host, port) as client:
            while not done.is_set():
                name = rng.choice(tenants)
                names = hosts_by_tenant[name]
                if len(names) < 2:
                    continue
                src, dst = rng.sample(names, 2)
                t0 = time.perf_counter()
                response = await client.route(name, src, dst)
                report.route_latency_s.append(time.perf_counter() - t0)
                was_overlapped = inflight > 0
                report.route_queries += 1
                if response.get("ok"):
                    report.route_ok += 1
                    if was_overlapped:
                        report.overlap_queries += 1
                else:
                    report.route_misses += 1
                # Yield so operators and the server loop stay responsive
                # even when a querier never blocks on I/O.
                await asyncio.sleep(0)

    queriers = [
        asyncio.ensure_future(querier(seed * 1009 + w))
        for w in range(route_clients)
    ]
    try:
        await asyncio.gather(*(operator(name) for name in tenants))
    finally:
        done.set()
        await asyncio.gather(*queriers, return_exceptions=True)
    report.wall_s = max(time.perf_counter() - start, 1e-9)
    return report
