"""MapServer integration tests, in-process and deterministic.

Every test injects a ``ThreadPoolExecutor`` (the server accepts any
``concurrent.futures.Executor``), so remap cycles run real simulator
workers without process-pool startup cost or pickling, and a test can
swap in a *broken* executor to force the worker-failure path on demand.
Async bodies run under ``asyncio.run`` — the suite has no asyncio pytest
plugin, by design (one less dependency in the image).
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import Executor, ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service.client import MapClient, ServiceError
from repro.service.protocol import read_frame
from repro.service.serialize import (
    map_result_from_dict,
    route_tables_to_dict,
)
from repro.service.server import MapServer, percentile
from repro.service.tenant import TenantSpec
from repro.service.workers import run_map_job
from repro.simulator.faults import NO_FAULTS
from repro.topology.analysis import core_network, effective_network
from repro.topology.generators import build_ring
from repro.topology.isomorphism import match_networks
from tests.routing.test_deadlock_reference import shortest_path_tables
from tests.service.worker_slot import adopt

RING = TenantSpec(name="ring", topology="ring", params={"size": 4, "hosts_per_switch": 1})
MESH = TenantSpec(name="mesh", topology="mesh", params={"size": 2, "hosts_per_switch": 1})
NOW_C = TenantSpec(name="c", topology="now-c")


class _BrokenExecutor(Executor):
    """An executor whose pool is gone — every submission fails."""

    def submit(self, fn, /, *args, **kwargs):
        raise RuntimeError("simulated worker-pool failure")


class _GatedPool(ThreadPoolExecutor):
    """A thread pool whose jobs block until the test opens the gate —
    the only way to *deterministically* observe an in-flight cycle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()

    def submit(self, fn, /, *args, **kwargs):
        def gated(*inner_args, **inner_kwargs):
            assert self.gate.wait(timeout=30), "test never opened the gate"
            return fn(*inner_args, **inner_kwargs)

        return super().submit(gated, *args, **kwargs)


class _DoctoringPool(ThreadPoolExecutor):
    """A thread pool whose honest job outcomes pass through ``doctor``
    (when set) on their way back — a worker that returns garbage."""

    doctor = None

    def submit(self, fn, /, *args, **kwargs):
        def doctored(*inner_args, **inner_kwargs):
            outcome = fn(*inner_args, **inner_kwargs)
            if self.doctor is not None:
                self.doctor(outcome)
            return outcome

        return super().submit(doctored, *args, **kwargs)


class _GatedDoctoringPool(_GatedPool, _DoctoringPool):
    """Jobs wait for the gate, and their outcomes pass through ``doctor``."""


def _first_route(outcome: dict) -> tuple[dict, dict, str]:
    """The outcome's ``route-tables`` document, its first table and that
    table's first destination, to be lied in."""
    doc = outcome["tables"]
    table = doc["tables"][min(doc["tables"])]
    return doc, table, min(table["routes"])


def _a_long_tail(outcome: dict) -> list:
    """The first ``[chain, last channel]`` tail whose chain has a channel."""
    doc = outcome["tables"]
    return next(tail for tail in doc["tails"] if doc["chains"][tail[0]])


def _name_another_tail(outcome: dict, *, same_entry: bool) -> None:
    """Point the first route at a valid tail that is not its own: one
    entered at another switch, or one entered at the same switch that ends
    at another host (so only the far end lies)."""
    doc, table, dst = _first_route(outcome)
    channels, chains, tails = doc["channels"], doc["chains"], doc["tails"]

    def entry(tail):  # the node its first channel leaves
        chain, last = tail
        return channels[chains[chain][0] if chains[chain] else last][0][0]

    own = table["routes"][dst]
    table["routes"][dst] = next(
        at
        for at, tail in enumerate(tails)
        if at != own and (entry(tail) == entry(tails[own])) == same_entry
    )


@contextlib.asynccontextmanager
async def _server(*specs: TenantSpec, max_workers: int = 2):
    """A started MapServer on an ephemeral port, torn down afterwards."""
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        server = MapServer(specs, executor=pool)
        host, port = await server.start()
        try:
            yield server, host, port
        finally:
            await server.stop()


class TestLifecycle:
    def test_duplicate_tenant_names_are_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            MapServer([RING, RING])

    def test_address_requires_a_started_server(self):
        with pytest.raises(RuntimeError, match="not started"):
            MapServer([RING]).address

    def test_shutdown_op_stops_the_server(self):
        async def run():
            async with _server(RING) as (server, host, port):
                async with MapClient(host, port) as client:
                    response = await client.shutdown()
                    assert response["stopping"] is True
                await asyncio.wait_for(server.wait_closed(), timeout=5)

        asyncio.run(run())


class TestDispatch:
    def test_requests_must_be_objects_with_an_op(self):
        async def run():
            server = MapServer([RING])
            assert (await server.handle_request(["not", "a", "dict"]))["error"] == "bad-request"
            assert (await server.handle_request({"op": 7}))["error"] == "bad-request"
            assert (await server.handle_request({"op": "nope"}))["error"] == "unknown-op"
            # Op names never resolve to private attributes.
            assert (await server.handle_request({"op": "_cycle"}))["error"] == "unknown-op"
            return server.stats.snapshot()

        snapshot = asyncio.run(run())
        assert snapshot["errors"]["?"] == 2
        assert snapshot["requests"]["nope"] == 1

    def test_a_boolean_is_not_a_port_or_a_sample_count(self):
        """``isinstance(True, int)`` holds, so ``true`` used to address
        port 1 (and ``false`` port 0) and count as ``sample=1``."""
        async def run():
            server = MapServer([RING])
            tenant = server.tenants["ring"]
            tenant.tables = {}  # an (empty) generation: verify gets past "unmapped"
            wires = tenant.net.n_wires
            for request in (
                {"op": "cut", "node": "ring-s0", "port": True},
                {"op": "plug", "a": ["ring-s0", True], "b": ["ring-s1", 5]},
                {"op": "plug", "a": ["ring-s0", 5], "b": ["ring-s1", False]},
                {"op": "verify", "sample": True},
            ):
                response = await server.handle_request({**request, "tenant": "ring"})
                assert response["ok"] is False, request
                assert response["error"] == "bad-request", request
            assert tenant.net.n_wires == wires

        asyncio.run(run())

    def test_unknown_tenant_is_an_error_not_an_exception(self):
        async def run():
            server = MapServer([RING])
            for op in ("map", "route", "verify", "cut", "plug"):
                response = await server.handle_request({"op": op, "tenant": "ghost"})
                assert response["ok"] is False
                assert response["error"] == "unknown-tenant"
            response = await server.handle_request({"op": "stats", "tenant": "ghost"})
            assert response["error"] == "unknown-tenant"

        asyncio.run(run())

    def test_internal_errors_become_responses(self):
        async def run():
            server = MapServer([RING])
            # No executor was ever attached: the cycle raises RuntimeError,
            # which must come back as a response, not escape the dispatcher.
            response = await server.handle_request({"op": "map", "tenant": "ring"})
            assert response["ok"] is False
            assert response["error"] == "internal-error"
            assert "RuntimeError" in response["message"]

        asyncio.run(run())


#: The error codes docs/SERVICE.md lists for a request (``internal-error``
#: is the catch-all no request should reach).
DOCUMENTED = {
    "bad-request", "unknown-tenant", "unknown-op", "unmapped", "no-route", "no-wire", "bad-plug",
}

_NAMES = ("ring-s0", "ring-s3", "ring-n000", "ring-n002", "ghost")
#: A port no node of the ring has (its switches have 8, its hosts 1) or
#: not a port at all: with one of these, no cut or plug is a real one.
_NO_PORT = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=8),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.none(),
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([-1, 0, 2**63, 10**30]),
    st.floats(allow_nan=True),
    st.text(max_size=6),
    st.sampled_from(_NAMES),
    st.lists(st.one_of(st.sampled_from(_NAMES), _NO_PORT), max_size=3),
    st.tuples(st.sampled_from(_NAMES), _NO_PORT).map(list),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_FIELDS = {
    "cut": ("node", "port", "auto"),
    "plug": ("a", "b"),
    "route": ("src", "dst"),
    "verify": ("sample",),
    "stats": (),
}


@st.composite
def _junk_requests(draw) -> dict:
    op = draw(st.sampled_from(sorted(_FIELDS)))
    request = {"op": op}
    if draw(st.booleans()):
        request["tenant"] = draw(st.one_of(st.sampled_from(["ring", "idle"]), _JUNK))
    for name in _FIELDS[op]:
        if draw(st.booleans()):
            value = draw(_NO_PORT if name == "port" else _JUNK)
            if name == "auto" and value is True:
                value = "yes"  # a real auto cut is not junk
            request[name] = value
    return request


@pytest.fixture(scope="module")
def junk_server():
    """A server that is never started: one mapped ring tenant and one that
    never mapped, the ops under test reach no executor."""
    idle = TenantSpec(name="idle", topology="ring", params={"size": 4, "hosts_per_switch": 1})
    server = MapServer([RING, idle])
    tenant = server.tenants["ring"]
    payload = tenant.job_payload()
    adopt(tenant, payload, run_map_job(payload))
    return server


class TestJunkInEveryField:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(request=_junk_requests())
    def test_every_answer_is_documented_and_changes_nothing(self, junk_server, request):
        """Typed junk in every field of ``cut``, ``plug``, ``route``,
        ``verify`` and ``stats``: each answer is ``ok`` or carries a code
        the protocol documents, never ``internal-error``, and no tenant's
        generation, tables or topology epoch moves."""
        def state() -> list:
            return [(t.generation, t.tables, t.net.topology_epoch) for t in tenants]

        tenants = junk_server.tenants.values()
        before = state()
        response = asyncio.run(junk_server.handle_request(request))
        assert response.get("ok") or response.get("error") in DOCUMENTED, (request, response)
        assert state() == before, request

    @pytest.mark.parametrize(
        "request_",
        [
            {"node": "nope", "port": 0},
            {"node": "ring-s0", "port": -1},
            {"node": "ring-s0", "port": 10**30},
        ],
    )
    def test_a_cut_at_no_port_is_no_wire(self, junk_server, request_):
        """These used to answer ``internal-error`` ("TopologyError: no such
        node: nope") where ``plug`` answers ``bad-plug``."""
        request = {"op": "cut", "tenant": "ring", **request_}
        response = asyncio.run(junk_server.handle_request(request))
        assert response["error"] == "no-wire", response

    def test_a_huge_sample_verifies_every_route(self, junk_server):
        """``islice`` refuses a stop beyond ``sys.maxsize``: a huge sample
        used to answer ``internal-error``."""
        response = asyncio.run(
            junk_server.handle_request({"op": "verify", "tenant": "ring", "sample": 10**30})
        )
        assert response["ok"] and response["routes_checked"] == 12, response

    @pytest.mark.parametrize(
        "op, flag", [("map", "wait"), ("map", "include_result"), ("tenants", "include_hosts")]
    )
    @pytest.mark.parametrize(
        "value", ["no", 0, 1, None, [], {}], ids=["str", "zero", "one", "null", "list", "dict"]
    )
    def test_a_flag_that_is_not_a_boolean_is_a_bad_request(self, junk_server, op, flag, value):
        """``map``'s ``wait`` and ``include_result`` and ``tenants``'
        ``include_hosts`` are booleans when present: ``"wait": "no"`` used
        to wait for a cycle and ``"wait": null`` to start one. Junk answers
        ``bad-request`` and starts no cycle."""
        tenant = junk_server.tenants["ring"]
        generation = tenant.generation
        request = {"op": op, "tenant": "ring", flag: value}
        response = asyncio.run(junk_server.handle_request(request))
        assert response["error"] == "bad-request", response
        assert junk_server._inflight == {} and tenant.generation == generation


class TestMapRouteVerify:
    def test_full_tenant_lifecycle_over_the_socket(self):
        async def run():
            async with _server(RING, MESH) as (server, host, port):
                async with MapClient(host, port) as client:
                    listing = (await client.request("tenants", include_hosts=True))["tenants"]
                    assert [t["name"] for t in listing] == ["ring", "mesh"]
                    assert all(t["status"] == "unmapped" for t in listing)
                    hosts = {t["name"]: t["host_names"] for t in listing}

                    # Route before any map: a miss, not a crash.
                    miss = await client.route("ring", hosts["ring"][0], hosts["ring"][1])
                    assert miss["ok"] is False and miss["error"] == "unmapped"

                    outcome = await client.map("ring")
                    assert outcome["adopted"] is True
                    assert outcome["generation"] == 1
                    assert outcome["isomorphic"] and outcome["deadlock_free"]
                    assert outcome["probes"] > 0 and outcome["n_routes"] > 0

                    src, dst = hosts["ring"][0], hosts["ring"][1]
                    route = await client.route("ring", src, dst)
                    assert route["generation"] == 1
                    assert route["hops"] == len(route["turns"]) + 1
                    assert all(isinstance(t, int) for t in route["turns"])

                    # verify replays served routes on the actual fabric.
                    verdict = await client.verify("ring")
                    assert verdict["ok"] is True
                    assert verdict["deadlock_free"] is True
                    assert verdict["routes_checked"] == verdict["routes_delivered"] > 0
                    sampled = await client.verify("ring", sample=2)
                    assert sampled["routes_checked"] == 2

                    # The other tenant is untouched by all of the above.
                    stats = await client.stats("mesh")
                    assert stats["status"] == "unmapped"
                    assert stats["generation"] == 0
            return True

        assert asyncio.run(run())

    def test_map_sends_its_result_only_when_asked(self):
        async def run():
            async with _server(RING) as (server, host, port):
                async with MapClient(host, port) as client:
                    plain = await client.map("ring")
                    assert plain["adopted"] is True
                    assert "map_result" not in plain
                    cut = await client.cut("ring", auto=True)
                    assert cut["ok"] is True
                    full = await client.request(
                        "map", tenant="ring", wait=True, include_result=True
                    )
                    assert full["adopted"] is True
                    result = map_result_from_dict(full["map_result"])
                    tenant = server.tenants["ring"]
                    effective = effective_network(
                        tenant.net, NO_FAULTS, tenant.mapper_host()
                    )
                    assert match_networks(result.network, core_network(effective))
            return True

        assert asyncio.run(run())

    def test_verify_names_a_route_whose_host_is_gone(self):
        async def run():
            async with _server(RING) as (server, host, port):
                async with MapClient(host, port) as client:
                    await client.map("ring")
                    net = server.tenants["ring"].net
                    gone = sorted(net.hosts)[0]
                    net.remove_node(gone)
                    verdict = await client.verify("ring")
                    assert verdict["ok"] is False
                    assert verdict["failures"][0] == {
                        "src": gone,
                        "dst": sorted(net.hosts)[0],
                        "status": "unreachable endpoint",
                    }
                    n = net.n_hosts + 1
                    assert verdict["routes_checked"] == n * (n - 1)
                    assert verdict["routes_delivered"] == (n - 1) * (n - 2)
            return True

        assert asyncio.run(run())

    def test_cut_then_remap_seeds_incrementally_and_reroutes(self):
        async def run():
            async with _server(RING) as (server, host, port):
                async with MapClient(host, port) as client:
                    await client.map("ring")
                    cut = await client.cut("ring", auto=True)
                    assert len(cut["cut"]) == 2  # two wire ends reported

                    outcome = await client.map("ring")
                    assert outcome["adopted"] is True
                    assert outcome["generation"] == 2
                    # The second cycle seeded from the wire-serialized prior
                    # map: the delta journal proved only removals happened.
                    assert outcome["seeded"] is True
                    assert outcome.get("seed_fallback") is None
                    assert outcome["kept_nodes"] > 0

                    verdict = await client.verify("ring")
                    assert verdict["ok"] is True, verdict["failures"]
            return True

        assert asyncio.run(run())

    def test_explicit_cut_and_plug_round_trip(self):
        async def run():
            async with _server(RING) as (server, host, port):
                net = server.tenants["ring"].net
                wire = next(
                    w for w in sorted(
                        net.wires,
                        key=lambda w: (w.a.node, w.a.port),
                    )
                    if net.is_switch(w.a.node) and net.is_switch(w.b.node)
                )
                ends = [[wire.a.node, wire.a.port], [wire.b.node, wire.b.port]]
                async with MapClient(host, port) as client:
                    cut = await client.cut("ring", node=ends[0][0], port=ends[0][1])
                    assert sorted(cut["cut"]) == sorted(ends)
                    # Cutting where nothing is plugged is a clean error.
                    empty = await client.cut("ring", node=ends[0][0], port=ends[0][1])
                    assert empty["ok"] is False and empty["error"] == "no-wire"
                    await client.request("plug", tenant="ring", a=ends[0], b=ends[1])
                    assert net.wire_at(ends[0][0], ends[0][1]) is not None
                    # Re-plugging an occupied port is rejected, not fatal.
                    with pytest.raises(ServiceError) as err:
                        await client.request("plug", tenant="ring", a=ends[0], b=ends[1])
                    assert err.value.code == "bad-plug"
            return True

        assert asyncio.run(run())


class TestCoalescing:
    def test_concurrent_maps_share_one_cycle(self):
        async def run():
            async with _server(RING) as (server, host, port):
                tenant = server.tenants["ring"]
                first = server._ensure_cycle(tenant)
                assert first is not None
                assert server._ensure_cycle(tenant) is None  # coalesced
                outcomes = await asyncio.gather(
                    server.run_map_cycle("ring"), server.run_map_cycle("ring")
                )
                assert outcomes[0] is outcomes[1]  # same cycle, same outcome
                assert tenant.maps_completed == 1
                assert "ring" not in server._inflight
            return True

        assert asyncio.run(run())

    def test_nowait_map_reports_dispatch_vs_coalesce(self):
        async def run():
            with _GatedPool(max_workers=1) as pool:
                server = MapServer([RING], executor=pool)
                host, port = await server.start()
                try:
                    async with MapClient(host, port) as client:
                        a = await client.request_raw("map", tenant="ring", wait=False)
                        b = await client.request_raw("map", tenant="ring", wait=False)
                        assert a["dispatched"] and a["coalesced"] is False
                        assert b["dispatched"] and b["coalesced"] is True
                        listing = await client.tenants()
                        assert listing[0]["remap_in_flight"] is True
                        pool.gate.set()
                        # The dispatched cycle completes and is adopted.
                        await server.run_map_cycle("ring")
                        assert server.tenants["ring"].generation == 1
                finally:
                    pool.gate.set()
                    await server.stop()
            return True

        assert asyncio.run(run())


class TestFailureSemantics:
    def test_worker_failure_degrades_the_tenant_not_the_server(self):
        async def run():
            async with _server(RING, MESH) as (server, host, port):
                async with MapClient(host, port) as client:
                    listing = (await client.request("tenants", include_hosts=True))["tenants"]
                    hosts = {t["name"]: t["host_names"] for t in listing}
                    await client.map("ring")
                    baseline = await client.route(
                        "ring", hosts["ring"][0], hosts["ring"][1]
                    )

                    # Break the pool: the next cycle dies in submit().
                    good_pool, server._executor = server._executor, _BrokenExecutor()
                    outcome = await client.map("ring")
                    assert outcome["ok"] is False
                    assert outcome["error"] == "worker-failed"
                    assert outcome["generation"] == 1  # old generation kept

                    # Degraded, not down: the previous tables still serve.
                    stats = await client.stats("ring")
                    assert stats["status"] == "degraded"
                    assert stats["maps_failed"] == 1
                    again = await client.route(
                        "ring", hosts["ring"][0], hosts["ring"][1]
                    )
                    assert again["turns"] == baseline["turns"]

                    # The sibling tenant's cycles never touched the bad pool
                    # state machine: isolation is per tenant.
                    server._executor = good_pool
                    assert (await client.map("mesh"))["adopted"] is True

                    # And the degraded tenant recovers on the next cycle.
                    recovered = await client.map("ring")
                    assert recovered["adopted"] is True
                    assert recovered["generation"] == 2
                    assert (await client.stats("ring"))["status"] == "mapped"
            return True

        assert asyncio.run(run())

    def test_failure_before_any_map_leaves_tenant_failed(self):
        async def run():
            server = MapServer([RING], executor=_BrokenExecutor())
            await server.start()
            try:
                outcome = await server.run_map_cycle("ring")
                assert outcome["adopted"] is False
                tenant = server.tenants["ring"]
                assert tenant.status == "failed"  # nothing to degrade to
                assert tenant.tables is None
            finally:
                await server.stop()
            return True

        assert asyncio.run(run())

    @pytest.mark.parametrize(
        "doctor, complaint",
        [
            pytest.param(lambda o: o.pop("map_result"), "map-result", id="no-map-result"),
            pytest.param(
                lambda o: o.update(map_result={"kind": "nonsense"}),
                "map-result",
                id="map-result-of-the-wrong-kind",
            ),
            pytest.param(
                lambda o: o["map_result"].pop("witnesses"),
                "missing field 'witnesses'",
                id="map-result-without-witnesses",
            ),
            pytest.param(
                lambda o: o["map_result"].update(network={"not": "a network"}),
                "bad network",
                id="map-result-whose-network-does-not-decode",
            ),
            pytest.param(
                lambda o: o["map_result"].update(profile={"explore": ["once", 0.5]}),
                "unknown keys ['profile']",
                id="map-result-whose-profile-does-not-decode",
            ),
            pytest.param(
                lambda o: o["tables"].update(version=3),
                "unsupported version 3",
                id="tables-of-the-previous-version",
            ),
            pytest.param(
                lambda o: o["tables"]["chains"][_a_long_tail(o)[0]].append(
                    o["tables"]["chains"][_a_long_tail(o)[0]][0]
                ),
                "does not chain at 'switch-",
                id="chain-does-not-chain",
            ),
            pytest.param(
                lambda o: _a_long_tail(o).__setitem__(
                    1, o["tables"]["chains"][_a_long_tail(o)[0]][0]
                ),
                "last channel leaves 'switch-",
                id="tail-whose-last-channel-leaves-elsewhere",
            ),
            pytest.param(
                lambda o: o["tables"]["chains"][-1].append(len(o["tables"]["channels"])),
                "malformed index",
                id="chain-channel-out-of-range",
            ),
            pytest.param(
                lambda o: _first_route(o)[1].update(head="0"),
                "field 'head' has type str",
                id="head-is-a-string",
            ),
            pytest.param(
                lambda o: _first_route(o)[1].update(head=None),
                "head None over",
                id="table-with-routes-and-no-head",
            ),
            pytest.param(
                lambda o: _first_route(o)[1]["routes"].__setitem__(_first_route(o)[2], "0"),
                "malformed index '0'",
                id="tail-number-is-a-string",
            ),
            pytest.param(
                lambda o: _name_another_tail(o, same_entry=False),
                "enters at 'switch-",
                id="route-names-a-tail-from-another-switch",
            ),
            pytest.param(
                lambda o: _name_another_tail(o, same_entry=True),
                "ends at 'ring-n",
                id="route-names-a-tail-to-another-host",
            ),
            pytest.param(
                # Well-formed tables with a channel-dependency cycle
                # (unrestricted shortest paths around a ring), under the
                # worker's claim that they are deadlock-free.
                lambda o: o.update(
                    tables=route_tables_to_dict(
                        shortest_path_tables(build_ring(5, hosts_per_switch=1))
                    ),
                    deadlock_free=True,
                ),
                "channel dependency graph has a cycle",
                id="tables-with-a-dependency-cycle-claimed-deadlock-free",
            ),
        ],
    )
    def test_malformed_ok_outcome_leaves_the_tenant_untouched(self, doctor, complaint):
        """An ``ok`` outcome is validated whole before adoption: a missing
        map_result used to raise inside adopt() after the counters had
        moved, and a wrong-kind one — or a right-kind one whose body does
        not decode — was stored as the next cycle's seed, turning every
        later honest cycle into ``bad-seed``."""

        async def run():
            with _DoctoringPool(max_workers=1) as pool:
                server = MapServer([RING], executor=pool)
                host, port = await server.start()
                try:
                    async with MapClient(host, port) as client:
                        pool.doctor = doctor
                        bad = await client.map("ring")
                        assert bad["ok"] is False
                        assert bad["error"] == "bad-worker-outcome"
                        assert complaint in bad["message"]
                        assert bad["generation"] == 0
                        tenant = server.tenants["ring"]
                        assert tenant.status == "failed"
                        assert (tenant.maps_completed, tenant.maps_failed) == (0, 1)
                        assert tenant.tables is None
                        assert tenant.last_result_doc is None
                        assert tenant.last_cycle["adopted"] is False

                        pool.doctor = None
                        good = await client.map("ring")
                        assert good["adopted"] is True
                        assert good["generation"] == 1
                finally:
                    await server.stop()
            return True

        assert asyncio.run(run())

    def test_a_seeded_word_that_is_not_a_boolean_is_a_bad_worker_outcome(self):
        """A worker's ``"seeded": "no"`` used to decode as ``True`` and be
        adopted. It is refused: the served generation, its tables and the
        next cycle's seed stay those of the last good cycle, and
        ``last_cycle`` records the refusal, carrying no word of the
        refused map."""

        async def run():
            with _DoctoringPool(max_workers=1) as pool:
                server = MapServer([RING], executor=pool)
                host, port = await server.start()
                try:
                    async with MapClient(host, port) as client:
                        good = await client.map("ring")
                        assert good["adopted"] is True and good["generation"] == 1
                        tenant = server.tenants["ring"]
                        tables, seed = tenant.tables, tenant.last_result_doc

                        pool.doctor = lambda o: o["map_result"].update(seeded="no")
                        bad = await client.map("ring")
                        assert bad["ok"] is False
                        assert bad["error"] == "bad-worker-outcome"
                        assert "field 'seeded' has type str" in bad["message"]
                        assert bad["generation"] == 1
                        assert tenant.generation == 1
                        assert tenant.tables is tables
                        assert tenant.last_result_doc is seed
                        assert tenant.last_cycle["adopted"] is False
                        assert tenant.last_cycle["error"] == "bad-worker-outcome"
                        assert "seeded" not in tenant.last_cycle
                        assert tenant.status == "degraded"
                finally:
                    await server.stop()
            return True

        assert asyncio.run(run())

    @pytest.mark.parametrize(
        "doctor, complaint",
        [
            pytest.param(
                lambda o: o["tables"].update(base="0" * 32), "made against", id="another-base"
            ),
            pytest.param(
                lambda o: o["tables"].update(version=4), "unsupported version 4", id="relabelled-v4"
            ),
            pytest.param(
                lambda o: o["tables"].update(kind="route-tables", version=4),
                "malformed channel 0",
                id="relabelled-route-tables",
            ),
            pytest.param(
                lambda o: o["tables"]["channels"].__setitem__(0, 10**6),
                "names no unlisted held channel",
                id="held-channel-out-of-range",
            ),
            pytest.param(
                lambda o: o["tables"]["channels"].__setitem__(1, o["tables"]["channels"][0]),
                "names no unlisted held channel",
                id="held-channel-twice",
            ),
            pytest.param(
                lambda o: o["tables"]["chains"].append([10**6, []]),
                "malformed index",
                id="changed-chain-out-of-range",
            ),
            pytest.param(
                lambda o: o["tables"]["chains"].append([0, [0, 0]]),
                "does not chain at",
                id="changed-chain-does-not-chain",
            ),
            pytest.param(
                lambda o: o["tables"]["chains"].append([0, [0]]),
                "does not run where the held one ran",
                id="changed-chain-runs-elsewhere",
            ),
            pytest.param(lambda o: o["tables"]["channels"].pop(), "drops", id="channel-dropped"),
        ],
    )
    def test_a_bad_delta_leaves_the_tenant_untouched(self, doctor, complaint):
        """A cut answered as a ``route-delta`` is applied to the served
        generation and refused whole on any fault: the tenant keeps its
        generation, tables and id. The worker holds the refused one, so
        the next cycle answers whole tables, and the cut after it a delta
        that is adopted and served."""

        async def run():
            with _DoctoringPool(max_workers=1) as pool:
                server = MapServer([NOW_C], executor=pool)
                host, port = await server.start()
                try:
                    async with MapClient(host, port) as client:
                        assert (await client.map("c"))["adopted"]
                        tenant = server.tenants["c"]
                        held = (tenant.tables, tenant.tables_id)
                        await client.request("cut", tenant="c", node="C-l2-2", port=1)
                        pool.doctor = lambda o: o["tables"]["kind"] == "route-delta" and doctor(o)
                        bad = await client.map("c")
                        assert bad["error"] == "bad-worker-outcome", bad
                        assert complaint in bad["message"]
                        assert (bad["generation"], tenant.tables, tenant.tables_id) == (1, *held)
                        pool.doctor = None
                        sent = []
                        pool.doctor = lambda o: sent.append(o["tables"]["kind"])
                        assert (await client.map("c"))["adopted"]
                        await client.request("cut", tenant="c", node="C-l2-2", port=0)
                        good = await client.map("c")
                        assert good["adopted"] and good["generation"] == 3
                        assert sent == ["route-tables", "route-delta"]
                        verdict = await client.verify("c")
                        assert verdict["ok"] and verdict["routes_checked"] == good["n_routes"]
                finally:
                    await server.stop()
            return True

        assert asyncio.run(run())

    def test_an_echoed_epoch_and_tables_id_are_not_adopted(self):
        """An outcome names no epoch and no tables id: the tenant adopts
        under its payload's. A worker that echoes the epoch after a cut
        made while its job ran, and an id of its own, changes neither, so
        the next payload's seed still names the cut and its base is the
        id the payload asked for. (The echoed epoch used to be kept, and
        the cut fell out of every later seed.)"""

        async def run():
            with _GatedDoctoringPool(max_workers=1) as pool:
                server = MapServer([NOW_C], executor=pool)
                host, port = await server.start()
                try:
                    async with MapClient(host, port) as client:
                        pool.gate.set()
                        assert (await client.map("c"))["adopted"]
                        pool.gate.clear()
                        tenant = server.tenants["c"]
                        epoch = tenant.net.topology_epoch
                        pool.doctor = lambda o: o.update(
                            net_epoch=tenant.net.topology_epoch, tables_id="0" * 32
                        )
                        sent = await client.request_raw("map", tenant="c", wait=False)
                        assert sent["dispatched"] and not sent["coalesced"]
                        cut = await client.request("cut", tenant="c", node="C-l2-2", port=1)
                        assert tenant.net.topology_epoch == epoch + 1
                        pool.gate.set()
                        done = await server.run_map_cycle("c")
                        assert done["adopted"] and tenant.generation == 2
                        assert tenant.net_epoch_at_last_map == epoch
                        payload = tenant.job_payload()
                        assert payload["base"] == tenant.tables_id != "0" * 32
                        assert sorted(payload["map_seed"]["affected"]) == sorted(cut["cut"])
                        pool.doctor = None
                        again = await client.map("c")
                        assert again["adopted"] and again["seeded"]
                finally:
                    pool.gate.set()
                    await server.stop()
            return True

        assert asyncio.run(run())

    def test_protocol_garbage_gets_an_error_frame_then_close(self):
        async def run():
            async with _server(RING) as (server, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write((5).to_bytes(4, "big") + b"notjs")
                await writer.drain()
                response = await read_frame(reader)
                assert response["ok"] is False
                assert response["error"] == "protocol"
                assert await reader.read() == b""  # server closed on us
                writer.close()
                await writer.wait_closed()
            return True

        assert asyncio.run(run())


class TestStats:
    def test_server_wide_snapshot_aggregates_tenants(self):
        async def run():
            async with _server(RING) as (server, host, port):
                async with MapClient(host, port) as client:
                    await client.map("ring")
                    listing = (await client.request("tenants", include_hosts=True))["tenants"]
                    names = listing[0]["host_names"]
                    hit = await client.route("ring", names[0], names[1])
                    assert hit["ok"] is True
                    miss = await client.route("ring", names[0], "no-such-host")
                    assert miss["ok"] is False and miss["error"] == "no-route"
                    snapshot = await client.stats()
            assert snapshot["tenants"] == 1
            assert snapshot["totals"]["maps_completed"] == 1
            assert snapshot["totals"]["route_queries"] == 2
            server_stats = snapshot["server"]
            assert server_stats["requests"]["map"] == 1
            assert server_stats["requests"]["route"] == 2
            assert server_stats["errors"]["route"] == 1
            lat = server_stats["latency"]["route"]
            assert lat["n"] == 2 and lat["p99_ms"] >= lat["p50_ms"] >= 0
            return True

        assert asyncio.run(run())

    def test_per_tenant_stats_expose_the_last_cycle(self):
        async def run():
            async with _server(RING) as (server, host, port):
                async with MapClient(host, port) as client:
                    await client.map("ring")
                    stats = await client.stats("ring")
            assert stats["maps_completed"] == 1
            assert stats["probes_total"] > 0
            last = stats["last_cycle"]
            assert last["adopted"] is True
            assert last["isomorphic"] is True and last["deadlock_free"] is True
            assert last["eval_cache"]["hits"] >= 0
            return True

        assert asyncio.run(run())


class TestPercentile:
    def test_rank_statistics(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
        samples = list(range(1, 102))  # odd count: the median is exact
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 1.0) == 101
        assert percentile(samples, 0.5) == 51

    def test_quantile_domain_is_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], 1.5)
