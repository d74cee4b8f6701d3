"""The four workloads and the seeded cut generator.

Every workload drives a *product entry point* — ``RemapperDaemon.run_cycle``
or the served ``map`` op — and offers the runner the same five steps:
``setup`` (build, start, one unsampled warm-up cycle), ``prepare`` (put the
fabric in the next state, untimed), ``cycle`` (the timed unit of work),
``check`` (verify that cycle's output, untimed) and ``teardown``.

``quick=True`` shrinks the fabrics (subcluster C / fat-tree k=4) for the
self-tests only; reported numbers always use the full sizes.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.chaos.oracles import effective_network
from repro.core.mapper import MapSeed
from repro.core.mapper_protocol import create_mapper
from repro.core.remapper import RemapCycle, RemapperDaemon
from repro.routing.incremental import diff_route_tables
from repro.service.client import MapClient
from repro.service.protocol import decode_frames, encode_frame
from repro.service.server import MapServer, percentile
from repro.service.tenant import TenantSpec
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.simulator.stack import build_service_stack
from repro.topology.analysis import bridges, core_network, recommended_search_depth
from repro.topology.generators import (
    build_full_now,
    build_subcluster,
    build_three_tier_fat_tree,
)
from repro.topology.isomorphism import match_networks
from repro.topology.model import Network

import meter

#: Cuts per epoch before the fabric is reset to intact.
CUTS_PER_EPOCH = 8
#: Host pairs whose installed route is evaluated on the actual fabric
#: after every sampled cycle.
ROUTE_SAMPLE = 16
#: Open-loop route lookups per second on the served workload.
LOOKUP_RATE = 100.0
#: A lookup answered later than this after it was due counts as slow.
LOOKUP_LIMIT_S = 0.010


@dataclass
class Outcome:
    """What one sampled cycle reported, and whether it verified."""

    probes: int
    sim_ms: float
    #: The map adopted subtrees from the previous cycle's map.
    seeded: bool
    #: The cycle followed a cut on a warm map, so it should have seeded.
    planned_seed: bool
    #: Correctness violations; empty when the cycle verified.
    errors: list[str] = field(default_factory=list)
    #: Routes recomputed, routes that actually changed, hosts updated and
    #: hosts served (the routing layer's waste ratios).
    routes: int = 0
    routes_changed: int = 0
    hosts_updated: int = 0
    hosts: int = 0


def _now_fabric(quick: bool) -> Network:
    return build_subcluster("C") if quick else build_full_now()


def _fat_tree_k(quick: bool) -> int:
    # k=12 (the issue's size) costs ~3.5 s a cycle, too few samples in a
    # run; k=10 (125 switches, 50 hosts, 23 848 probes) is mapping-
    # dominated the same way at ~1.4 s.
    return 4 if quick else 10


def _wire_key(wire) -> tuple:
    return (wire.a.node, wire.a.port, wire.b.node, wire.b.port)


class CutPlanner:
    """Seeded generator of cable cuts shared by the recovery workloads.

    Each epoch is ``CUTS_PER_EPOCH`` cumulative cuts of switch-to-switch
    wires drawn from one ``random.Random(seed)``. A cut is kept when the
    fabric stays connected and — as the mapper stands today — the remap
    after it seeds from the previous map instead of falling back to
    from-scratch (a cut on the mapper's own trunk dirties more than half
    of the witnesses). The second test replays the mapper alone on a
    scratch copy, so the program under test receives only the cut list.
    """

    def __init__(self, seed: int, quick: bool) -> None:
        self._rng = random.Random(seed)
        self._quick = quick
        intact = _now_fabric(quick)
        self._h0 = sorted(intact.hosts)[0]
        self._depth = recommended_search_depth(intact, self._h0)

    def _map(self, net: Network, seed: MapSeed | None = None):
        mapper = create_mapper(
            "berkeley",
            build_service_stack(net, self._h0),
            search_depth=self._depth,
            host_first=False,
        )
        if seed is not None:
            mapper.seed_with(seed)
        return mapper.map()

    def epoch(self) -> list[tuple[tuple[str, int], tuple[str, int]]]:
        """The next epoch's cuts, each as both wire ends (node, port)."""
        net = _now_fabric(self._quick)
        prior = self._map(net)
        candidates = sorted(
            (
                w
                for w in net.wires
                if net.is_switch(w.a.node)
                and net.is_switch(w.b.node)
                and w.a.node != w.b.node
            ),
            key=_wire_key,
        )
        self._rng.shuffle(candidates)
        cuts = []
        bridge_keys = {_wire_key(b) for b in bridges(net)}
        for wire in candidates:
            if len(cuts) == CUTS_PER_EPOCH:
                break
            if _wire_key(wire) in bridge_keys:
                continue
            trial = net.copy()
            epoch = trial.topology_epoch
            trial.disconnect(trial.wire_at(wire.a.node, wire.a.port))
            result = self._map(
                trial,
                MapSeed(
                    network=prior.network,
                    witnesses=prior.witnesses,
                    affected=trial.affected_since(epoch).removed,
                    entries=prior.entry_ports,
                ),
            )
            if not result.seeded:
                continue
            net, prior = trial, result
            bridge_keys = {_wire_key(b) for b in bridges(net)}
            cuts.append(
                ((wire.a.node, wire.a.port), (wire.b.node, wire.b.port))
            )
        return cuts


def _host_pairs(net: Network, rng: random.Random, n: int) -> list[tuple[str, str]]:
    hosts = sorted(net.hosts)
    return [tuple(rng.sample(hosts, 2)) for _ in range(n)]


def _table_churn(old, new) -> dict[str, int]:
    """The routing layer's waste counters of one cycle, as Outcome fields."""
    deltas = diff_route_tables(old, new or {})
    return {
        "routes": sum(len(t) for t in (new or {}).values()),
        "routes_changed": sum(d.n_updates for d in deltas.values()),
        "hosts_updated": sum(1 for d in deltas.values() if not d.empty),
        "hosts": len(new or {}),
    }


class _DaemonWorkload:
    """Shared body of the three ``RemapperDaemon`` workloads."""

    name = ""
    why = ""
    #: Collect garbage between samples (outside the timed region).
    collect_garbage = True
    #: Sampled cycles follow a cut on a warm map, so they should seed.
    planned_seed = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.quick = quick
        self.rng = random.Random(seed)
        self.net: Network
        self.daemon: RemapperDaemon
        self.build_s = 0.0
        self._old_tables = None

    # -- steps ----------------------------------------------------------
    def _build(self) -> Network:
        raise NotImplementedError

    def _daemon(self, net: Network, h0: str) -> RemapperDaemon:
        raise NotImplementedError

    def _fresh(self) -> None:
        start = time.perf_counter()
        self.net = self._build()
        self.build_s = time.perf_counter() - start
        self.h0 = sorted(self.net.hosts)[0]
        self.daemon = self._daemon(self.net, self.h0)

    async def setup(self) -> None:
        self._fresh()
        self.pairs = _host_pairs(self.net, self.rng, ROUTE_SAMPLE)
        self.daemon.run_cycle()

    async def teardown(self) -> None:
        pass

    async def begin(self, heartbeat: bool) -> None:
        pass

    async def end(self) -> "LookupReport | None":
        return None

    async def worker_slices(self) -> list[float]:
        return []

    async def prepare(self) -> None:
        self._fresh()

    async def cycle(self) -> RemapCycle:
        self._old_tables = self.daemon.current_tables
        return self.daemon.run_cycle()

    def check(self, cycle: RemapCycle) -> Outcome:
        errors = []
        actual = core_network(effective_network(self.net, FaultModel(), self.h0))
        report = match_networks(cycle.map_result.network, actual)
        if not report:
            errors.append(f"map is not isomorphic to N-F: {report.reason}")
        if cycle.deadlock_free is not True:
            errors.append("routes were not verified deadlock-free")
        if cycle.distribution is None or cycle.distribution.failed:
            errors.append("route distribution did not reach every host")
        for src, dst in self.pairs:
            turns = self.daemon.route(src, dst)
            out = None if turns is None else evaluate_route(self.net, src, turns)
            if (
                out is None
                or out.status is not PathStatus.DELIVERED
                or out.delivered_to != dst
            ):
                errors.append(f"installed route {src}->{dst} does not deliver")
        return Outcome(
            probes=cycle.map_result.stats.total_probes,
            sim_ms=cycle.elapsed_ms,
            seeded=cycle.incremental,
            planned_seed=self.planned_seed,
            errors=errors,
            **_table_churn(self._old_tables, self.daemon.current_tables),
        )


class NowCold(_DaemonWorkload):
    name = "now_cold"
    why = (
        "Boot path: fresh full NOW (40 switches, 100 hosts) and a default "
        "daemon every cycle, so no seed, delta or cross-cycle cache applies; "
        "search depth and routing dominate."
    )

    def _build(self) -> Network:
        return _now_fabric(self.quick)

    def _daemon(self, net: Network, h0: str) -> RemapperDaemon:
        return RemapperDaemon(net, h0)


class NowRecover(_DaemonWorkload):
    name = "now_recover"
    why = (
        "Fault path: single cable cuts on a warm incremental daemon; the same "
        "layers used differently (seeded map, diff, delta distribution), "
        "where delta-driven routing should show and now_cold should not."
    )
    planned_seed = True

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self._planner = CutPlanner(seed, quick)
        self._cuts: deque = deque()

    def _build(self) -> Network:
        return _now_fabric(self.quick)

    def _daemon(self, net: Network, h0: str) -> RemapperDaemon:
        return RemapperDaemon(net, h0, incremental=True)

    async def setup(self) -> None:
        await super().setup()
        self._cuts = deque(self._planner.epoch())

    async def prepare(self) -> None:
        if not self._cuts:
            # New epoch: intact fabric, unsampled cold cycle.
            self._fresh()
            self.daemon.run_cycle()
            self._cuts = deque(self._planner.epoch())
        (node, port), _ = self._cuts.popleft()
        self.net.disconnect(self.net.wire_at(node, port))


class FatTreeMap(_DaemonWorkload):
    name = "fattree_map"
    why = (
        "Mapping-dominated: three-tier fat tree k=10 (125 switches, 50 hosts, "
        "23 848 probes) at fixed depth 6; search depth is bypassed and routing "
        "is minor, so a routing or depth gain predicts no change."
    )

    def _build(self) -> Network:
        return build_three_tier_fat_tree(_fat_tree_k(self.quick), hosts_per_edge=1)

    def _daemon(self, net: Network, h0: str) -> RemapperDaemon:
        k = _fat_tree_k(self.quick)
        return RemapperDaemon(
            net,
            h0,
            search_depth=6,
            mapper_factory=lambda svc, depth: create_mapper(
                "berkeley",
                svc,
                radix=k,
                search_depth=depth,
                host_first=False,
            ),
        )


# ----------------------------------------------------------------------
# served workload
# ----------------------------------------------------------------------
@dataclass
class Lookup:
    due: float
    sent: float
    done: float
    response: dict
    pair: tuple[str, str]


async def open_loop_lookups(
    send: Callable[[str, str], Awaitable[dict]],
    pairs: list[tuple[str, str]],
    rate: float,
    stop: asyncio.Event,
    out: list[Lookup],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> None:
    """Send lookups on a fixed schedule, one at a time on one connection.

    Lookup ``i`` is due at ``start + i / rate`` whatever happened to the
    ones before it; a stall therefore delays every lookup that fell due
    meanwhile, and each is timed from its own due time.
    """
    start = clock()
    i = 0
    while not stop.is_set():
        due = start + i / rate
        wait = due - clock()
        if wait > 0:
            await sleep(wait)
        pair = pairs[i % len(pairs)]
        sent = clock()
        response = await send(*pair)
        out.append(Lookup(due, sent, clock(), response, pair))
        i += 1


#: What the open-loop reader reports, as ``service.<name>`` in the ledger.
LOOKUP_METRICS = (
    "route_p50_us", "route_p99_ms", "route_slow_share", "route_lookups_per_s",
    "route_late_us", "route_rtt_idle_us", "frame_codec_us",
    "loop_stall_max_ms", "loop_stall_share",
)  # fmt: skip


@dataclass
class LookupReport:
    """The open-loop reader's side of the served workload."""

    attempted: int
    failures: list[str]
    metrics: dict[str, float]


class ServedChurn:
    name = "served_churn"
    why = (
        "Served path: cut then map(wait) over loopback TCP with one worker, "
        "beside open-loop route lookups at 100/s; the only workload through "
        "run_map_job, both codecs, pickling, the pool and the event loop."
    )
    tenant = "t"
    planned_seed = True
    # A collection on the loop would stall the reader for the benchmark's
    # own sake; the cycle's garbage is made in the worker anyway.
    collect_garbage = False

    def __init__(
        self,
        seed: int,
        quick: bool = False,
        *,
        corrupt_prob: float = 0.0,
    ) -> None:
        self.quick = quick
        self.rng = random.Random(seed)
        self._planner = CutPlanner(seed, quick)
        self._corrupt_prob = corrupt_prob
        self.build_s = 0.0
        self._lookups: list[Lookup] = []
        self._stop = asyncio.Event()
        self._tasks: list[asyncio.Task] = []
        self._stalls: list[float] = []
        #: generation -> the tables adopted as that generation
        self._adopted: dict[int, dict] = {}
        self._old_tables = None

    @property
    def state(self):
        return self.server.tenants[self.tenant]

    async def setup(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=1)
        start = time.perf_counter()
        spec = TenantSpec(
            self.tenant,
            topology="now-c" if self.quick else "now-full",
            corrupt_prob=self._corrupt_prob,
        )
        # Our own (default-context) pool instead of max_workers=1, only so
        # teardown can wait for the worker process to end.
        self.server = MapServer([spec], executor=self.pool)
        self.build_s = time.perf_counter() - start
        host, port = await self.server.start()
        self.operator = MapClient(host, port)
        self.reader = MapClient(host, port)
        await self.operator.connect()
        await self.reader.connect()
        self.pairs = _host_pairs(self.state.net, self.rng, 4 * ROUTE_SAMPLE)
        # Loop and worker each on a CPU of its own. Left to the guest
        # scheduler they sometimes share one, which doubles a cycle and
        # makes run-to-run spread wider than any bound.
        self._cpus = os.sched_getaffinity(0)
        if len(self._cpus) >= 2:
            loop_cpu, worker_cpu = sorted(self._cpus)[:2]
            self.pool.submit(os.sched_setaffinity, 0, {worker_cpu}).result()
            os.sched_setaffinity(0, {loop_cpu})
        self.pool.submit(meter.arm_worker).result()
        await self.operator.map(self.tenant)
        self._remember_generation()
        self._cuts: deque = deque(self._planner.epoch())
        self._made: list = []

    async def teardown(self) -> None:
        await self.operator.close()
        await self.reader.close()
        await self.server.stop()
        self.pool.shutdown(wait=True)
        os.sched_setaffinity(0, self._cpus)

    def _remember_generation(self) -> None:
        if self.state.tables is not None:
            self._adopted[self.state.generation] = self.state.tables

    # -- open-loop reader ------------------------------------------------
    async def _send_lookup(self, src: str, dst: str) -> dict:
        return await self.reader.route(self.tenant, src, dst)

    async def _beat(self) -> None:
        """1 ms heartbeat: a wake-up more than a beat late means someone
        held the loop (an idle loop already wakes ~1 ms late: the
        selector's timeout is in whole milliseconds)."""
        while not self._stop.is_set():
            due = time.perf_counter() + 0.001
            await asyncio.sleep(0.001)
            self._stalls.append(max(0.0, time.perf_counter() - due - 0.001))

    async def begin(self, heartbeat: bool) -> None:
        """Start the reader, and for a traced run the loop heartbeat."""
        self._began = time.perf_counter()
        self._tasks = [
            asyncio.ensure_future(
                open_loop_lookups(
                    self._send_lookup,
                    self.pairs,
                    LOOKUP_RATE,
                    self._stop,
                    self._lookups,
                )
            )
        ]
        if heartbeat:
            self._tasks.append(asyncio.ensure_future(self._beat()))

    async def end(self) -> LookupReport:
        self._stop.set()
        await asyncio.gather(*self._tasks)
        elapsed = time.perf_counter() - self._began
        errors = [self._lookup_error(look) for look in self._lookups]
        failures = [
            f"lookup {i} {look.pair[0]}->{look.pair[1]}: {error}"
            for i, (look, error) in enumerate(zip(self._lookups, errors))
            if error
        ]
        failed = len(failures)
        # A failed lookup has missed the limit whenever it came back.
        slow = sum(
            1
            for look, error in zip(self._lookups, errors)
            if error or look.done - look.due > LOOKUP_LIMIT_S
        )
        # The served tables must also hold on the actual fabric.
        verdict = await self.operator.verify(self.tenant, sample=ROUTE_SAMPLE * 8)
        if not verdict.get("ok"):
            failures.append(f"verify op: {verdict}")
        # Idle round trip: nothing else on the loop.
        idle = []
        for src, dst in self.pairs:
            start = time.perf_counter()
            await self._send_lookup(src, dst)
            idle.append(time.perf_counter() - start)
        reply = self._lookups[-1].response if self._lookups else {"ok": True}
        start = time.perf_counter()
        for _ in range(200):
            list(decode_frames(encode_frame(reply)))
        codec = (time.perf_counter() - start) / 200
        latency = [look.done - look.due for look in self._lookups]
        n = len(latency)
        late = [look.sent - look.due for look in self._lookups]
        return LookupReport(
            attempted=n + 1,
            failures=failures,
            metrics={
                "route_p50_us": statistics.median(latency) * 1e6 if n else 0.0,
                "route_p99_ms": percentile(latency, 0.99) * 1e3,
                "route_slow_share": slow / n if n else 0.0,
                "route_lookups_per_s": (n - failed) / elapsed,
                "route_late_us": statistics.fmean(late) * 1e6 if n else 0.0,
                "route_rtt_idle_us": statistics.median(idle) * 1e6,
                "frame_codec_us": codec * 1e6,
                "loop_stall_max_ms": max(self._stalls, default=0.0) * 1e3,
                "loop_stall_share": sum(self._stalls) / elapsed,
            },
        )

    def _lookup_error(self, look: Lookup) -> str | None:
        response = look.response
        if not response.get("ok"):
            return f"refused: {response.get('error')}"
        tables = self._adopted.get(response.get("generation"))
        src, dst = look.pair
        route = tables[src].routes.get(dst) if tables and src in tables else None
        if route is None or list(route.turns) != response.get("turns"):
            return "turns differ from the adopted tables"
        return None

    # -- closed-loop operator ---------------------------------------------
    async def prepare(self) -> None:
        if not self._cuts:
            # Epoch reset: plug the cut cables back, one unsampled map
            # (from scratch: added connectivity cannot be seeded).
            for a, b in self._made:
                await self.operator.request("plug", tenant=self.tenant, a=list(a), b=list(b))
            self._made = []
            await self.operator.map(self.tenant)
            self._remember_generation()
            self._cuts = deque(self._planner.epoch())
        a, b = self._cuts.popleft()
        await self.operator.request("cut", tenant=self.tenant, node=a[0], port=a[1])
        self._made.append((a, b))
        await self.worker_slices()  # drop what the unsampled work left

    async def worker_slices(self) -> list[float]:
        """Host-speed slices timed inside the worker since the last call."""
        return await asyncio.get_running_loop().run_in_executor(
            self.pool, meter.drain_worker
        )

    async def cycle(self) -> dict:
        self._old_tables = self.state.tables
        return await self.operator.map(self.tenant)

    def check(self, response: dict) -> Outcome:
        self._remember_generation()
        errors = []
        if not response.get("ok"):
            errors.append(
                f"map refused: {response.get('error')}: {response.get('message')}"
            )
        else:
            for flag in ("adopted", "isomorphic", "deadlock_free"):
                if response.get(flag) is not True:
                    errors.append(f"served cycle not {flag}")
        return Outcome(
            probes=int(response.get("probes", 0)),
            sim_ms=float(response.get("elapsed_ms", 0.0)),
            seeded=bool(response.get("seeded")),
            planned_seed=self.planned_seed,
            errors=errors,
            **_table_churn(self._old_tables, self.state.tables),
        )


WORKLOADS = {w.name: w for w in (NowCold, NowRecover, FatTreeMap, ServedChurn)}
