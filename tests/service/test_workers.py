"""``run_map_job`` called directly: the served wrapper of the one cycle.

Two contracts. *Differential*: the daemon and the worker each keep one
``CycleState`` around the same ``map_cycle``/``route_cycle``
(docs/ARCHITECTURE.md, "The remap cycle"), so the same fabric driven
through the same cold → cut → plug sequence, or any sequence of cuts and
plugs that leaves it connected, must produce equal documents, probe
counts and fallback reasons either way.
*Error codes*: every expected failure comes back as a dict with a stable
code; the worker never raises for one. An outcome carries only what the
worker alone knows (``OK_KEYS``, ``FAILURE_KEYS``): the server takes the
epoch, the tables' id and every count from its payload and from the map
and generation it decodes.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import mapper as mapper_module
from repro.core.mapper import MappingError
from repro.core.remapper import CycleState, RemapperDaemon
from repro.service.serialize import (
    map_result_to_dict,
    route_tables_from_dict,
    route_tables_to_dict,
)
from repro.service.tenant import TenantSpec, TenantState, build_tenant_network
from repro.service.workers import run_map_job
from repro.simulator.stack import ProbeLayer
from repro.topology.analysis import bridges
from tests.service.worker_slot import adopt, differing, pickled, run_fresh


#: The five numbered fields of a route generation.
FIELDS = ("channels", "chains", "pairs", "heads", "numbered")

#: Every key of an ``ok`` outcome, and of a failed one.
OK_KEYS = {"ok", "map_result", "tables", "isomorphic", "mismatch", "eval_cache"}
FAILURE_KEYS = {"ok", "error", "message"}


def _served_cycle(tenant: TenantState) -> tuple[dict, dict]:
    """One cycle the way the server runs it, minus the pool; returns the
    payload and the outcome as the server's cycle returns it. The adopted
    generation, a delta applied, equals the full decode of the v4
    document a fresh worker returns for the same payload field for
    field."""
    payload = tenant.job_payload()
    outcome = run_map_job(pickled(payload))
    assert outcome["ok"], outcome
    assert outcome.keys() == OK_KEYS
    served = adopt(tenant, payload, outcome)
    full = route_tables_from_dict(run_fresh(pickled(payload))["tables"])
    for name in FIELDS:
        assert getattr(tenant.tables, name) == getattr(full, name), name
    return payload, served


class TestDaemonAndWorkerAgree:
    @pytest.mark.parametrize(
        "topology, cut, probes",
        [
            ("now-c", ("C-l2-0", 3), [762, 86, 762]),
            ("now-full", ("A-l2-1", 2), [2159, 109, 2159]),
            # Default k=4: radix-4 switches, so the cycle must tell the
            # mapper the fabric's radix (it used to assume 8 and die with
            # "turn 4 outside alphabet [-3, 3]" -> worker-failed).
            ("fat-tree-3tier", ("clos-core-0", 0), [264, 104, 264]),
        ],
        ids=["subcluster-c", "full-now", "fat-tree-default-k"],
    )
    def test_cold_cut_plug(self, topology, cut, probes):
        tenant = TenantState(TenantSpec(name="t", topology=topology))
        daemon_net = build_tenant_network(tenant.spec)
        daemon = RemapperDaemon(
            daemon_net, tenant.mapper_host(), incremental=True
        )
        wire = daemon_net.wire_at(*cut)
        ends = (wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        steps = [
            lambda net: None,
            lambda net: net.disconnect(net.wire_at(*cut)),
            lambda net: net.connect(*ends),
        ]
        fallbacks = []
        for step, expected_probes in zip(steps, probes):
            step(tenant.net)
            step(daemon_net)
            _, outcome = _served_cycle(tenant)
            cycle = daemon.run_cycle()
            assert outcome["map_result"] == map_result_to_dict(cycle.map_result)
            assert route_tables_to_dict(tenant.tables) == route_tables_to_dict(
                daemon.current_tables
            )
            assert (
                outcome["probes"]
                == cycle.map_result.stats.total_probes
                == expected_probes
            )
            assert outcome["seeded"] == cycle.incremental
            assert outcome["seed_fallback"] == cycle.seed_fallback
            assert outcome["isomorphic"] and outcome["deadlock_free"]
            fallbacks.append(cycle.seed_fallback)
        assert fallbacks[:2] == [None, None]
        assert "connectivity was added" in fallbacks[2]


def _cuttable(net) -> list[tuple[str, int, str, int]]:
    """The switch-to-switch cables whose cut leaves the fabric connected,
    so both sides keep mapping and routing all of it."""
    bridged = {wire.key for wire in bridges(net)}
    return sorted(
        (w.a.node, w.a.port, w.b.node, w.b.port)
        for w in net.wires
        if w.key not in bridged
        and w.a.node != w.b.node
        and net.is_switch(w.a.node)
        and net.is_switch(w.b.node)
    )


class TestDaemonAndWorkerAgreeOverSequences:
    """The daemon and the served worker each keep one ``CycleState``; over
    any cut / plug sequence they must answer alike on every cycle."""

    @given(steps=st.lists(
        st.tuples(st.sampled_from(("quiet", "cut", "plug", "cut+plug")), st.integers(0, 999)),
        min_size=1,
        max_size=4,
    ))
    # The same cable re-plugged and cut again: a map from scratch of the
    # cut fabric names its switches otherwise than the seeded one before
    # it (the daemon used to keep the seeded map's tables).
    @example(steps=[("cut", 1), ("cut+plug", 1)])
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_cycle_agrees(self, steps):
        tenant = TenantState(TenantSpec(name="t", topology="now-c"))
        daemon_net = build_tenant_network(tenant.spec)
        daemon = RemapperDaemon(daemon_net, tenant.mapper_host(), incremental=True)
        cut: list[tuple[str, int, str, int]] = []
        for op, pick in [("quiet", 0), *steps]:
            if op in ("plug", "cut+plug") and cut:
                ends = cut.pop(0)
                for net in (tenant.net, daemon_net):
                    net.connect(*ends)
            if op in ("cut", "cut+plug"):
                candidates = _cuttable(tenant.net)
                ends = candidates[pick % len(candidates)]
                cut.append(ends)
                for net in (tenant.net, daemon_net):
                    net.disconnect(net.wire_at(*ends[:2]))
            _, outcome = _served_cycle(tenant)
            cycle = daemon.run_cycle()
            assert outcome["map_result"] == map_result_to_dict(cycle.map_result), op
            assert route_tables_to_dict(tenant.tables) == route_tables_to_dict(
                daemon.current_tables
            ), op
            assert outcome["probes"] == cycle.map_result.stats.total_probes, op
            assert outcome["seeded"] == cycle.incremental, op
            assert outcome["seed_fallback"] == cycle.seed_fallback, op
            assert outcome["isomorphic"] and outcome["deadlock_free"], op


def test_the_job_probes_on_the_daemons_layerless_stack(monkeypatch):
    """The served job and the daemon map on one stack: the probe service
    each cycle builds carries no layer, so the quiescent engine takes its
    layer-less path on both sides."""
    services = []
    original = CycleState.map

    def spy(self, *args, **kwargs):
        result, svc = original(self, *args, **kwargs)
        services.append(svc)
        return result, svc

    monkeypatch.setattr(CycleState, "map", spy)
    tenant = TenantState(TenantSpec(name="t", topology="now-c"))
    assert run_fresh(pickled(tenant.job_payload()))["ok"]
    RemapperDaemon(build_tenant_network(tenant.spec), tenant.mapper_host()).run_cycle()
    assert [svc.find_layer(ProbeLayer) for svc in services] == [None, None]


class TestOutcomeCarriesEachChannelOnce:
    def test_full_now_outcome_size_and_sharing(self):
        """What crosses the pool is pickled, unpickled and decoded on the
        event loop: 9 900 routes are 100 host channels in front of 2 397
        tails over 553 chains and 332 channels, each named by number and
        no turn written (1.79 MB when every hop spelled its two port refs
        out, 0.55 MB when every route still listed its own channels and
        turns, 0.25 MB when every tail and route still carried its turns),
        and the adopted generation holds those 332 + 2 397 objects, not
        60 600 + 9 900."""
        tenant = TenantState(TenantSpec(name="t", topology="now-full"))
        outcome = run_map_job(tenant.job_payload())
        assert len(pickle.dumps(outcome)) < 110_000
        doc = outcome["tables"]
        assert len(doc["channels"]) == 332
        assert 0 < len(doc["chains"]) < len(doc["tails"]) <= 2400
        tables = route_tables_from_dict(pickle.loads(pickle.dumps(doc)))
        assert route_tables_to_dict(tables) == doc
        routes = [r for table in tables.values() for r in table.routes.values()]
        assert len(routes) == 9900
        held = [t for route in routes for t in route.traversals]
        assert len(held) == 60_600
        assert len({id(t) for t in held}) == 332 <= 2 * len(tenant.net.wires)
        assert len({id(route.tail) for route in routes}) == len(doc["tails"])
        # A tail's two tuples are its own: nothing else per route but the
        # route object itself.
        assert len({id(part) for route in routes for part in route.tail}) <= 2 * 2400

    def test_patched_outcome_pickles_like_a_fresh_one(self):
        """A worker that keeps its tenant's fabric answers each cut from
        names decoded out of earlier payloads beside this payload's own.
        Names are interned, so pickle still writes each one once and the
        outcome stays a fresh worker's size (124 kB against 102 kB on the
        first cut when they were not)."""
        tenant = TenantState(TenantSpec(name="t", topology="now-full"))
        net = tenant.net
        inner = sorted(
            (w for w in net.wires if net.is_switch(w.a.node) and net.is_switch(w.b.node)),
            key=lambda w: (w.a, w.b),
        )
        cuts = inner[::31]
        steps = [lambda: None]
        steps += [lambda w=w: net.disconnect(w) for w in cuts]
        steps.append(
            lambda: net.connect_all((w.a.node, w.a.port, w.b.node, w.b.port) for w in cuts)
        )
        for step in steps:
            step()
            # No base named: both workers answer whole tables.
            payload = tenant.job_payload()
            payload.pop("base", None)
            outcome = run_map_job(pickled(payload))
            fresh = run_fresh(pickled(payload))
            assert outcome["ok"] and not differing(outcome, fresh)
            size, fresh_size = len(pickle.dumps(outcome)), len(pickle.dumps(fresh))
            # Within 1 %, and in fact within the width of the eval_cache
            # counters: a map host name that is not interned costs ~300 B.
            assert abs(size - fresh_size) <= min(32, fresh_size // 100), (size, fresh_size)
            adopt(tenant, payload, outcome)


def _kind(outcome: dict) -> str:
    return outcome["tables"]["kind"]


class TestRouteDeltas:
    """A worker whose compile patched the generation the payload names as
    its ``base`` answers with a ``route-delta`` against it; any other job
    answers whole tables, and what the tenant adopts is the same either
    way (``_served_cycle`` checks it field for field)."""

    def test_a_cut_ships_what_it_changed(self):
        """On the full NOW a seeded cut changes a handful of the 553
        chains: the delta is a kilobyte or two against the 103 kB
        document, and the whole outcome shrinks with it."""
        tenant = TenantState(TenantSpec(name="t", topology="now-full"))
        _, first = _served_cycle(tenant)
        assert _kind(first) == "route-tables"
        first_size = len(pickle.dumps(first))
        first_cut, *cuts = sorted(_cuttable(tenant.net))[:4]
        # This cut maps from scratch, so switches are renamed: the route
        # memo compiles whole, and the outcome is whole tables.
        tenant.net.disconnect(tenant.net.wire_at(*first_cut[:2]))
        assert _kind(_served_cycle(tenant)[1]) == "route-tables"
        for ends in cuts:
            tenant.net.disconnect(tenant.net.wire_at(*ends[:2]))
            held = tenant.base
            payload, outcome = _served_cycle(tenant)
            doc = outcome["tables"]
            assert (doc["kind"], doc["version"], doc["base"]) == ("route-delta", 5, held[0])
            assert len(pickle.dumps(doc)) < 8_000
            assert len(pickle.dumps(outcome)) < first_size // 3
            # Nothing is numbered anew: the routes are the held ones.
            assert tenant.tables.numbered is held[1].numbered
            assert payload["tables_id"] == tenant.tables_id != held[0]

    def test_a_delta_only_against_the_generation_the_tenant_holds(self):
        """The worker holds the generation of the last payload it answered.
        A refused outcome, a fresh worker (a crash, a second process), a
        second tenant between two jobs and a new tenant of the same name
        (a new server on a shared pool) each leave the named base and the
        held one apart: whole tables, and the adopted generation is still
        the fresh worker's."""
        tenant = TenantState(TenantSpec(name="t", topology="now-c"))
        _served_cycle(tenant)

        def cut() -> None:
            cuttable = _cuttable(tenant.net)
            tenant.net.disconnect(tenant.net.wire_at(*cuttable[len(cuttable) // 2][:2]))

        cut()
        assert _kind(_served_cycle(tenant)[1]) == "route-delta"
        # Refused: the worker moved on to a generation the tenant lacks.
        cut()
        assert _kind(run_map_job(pickled(tenant.job_payload()))) == "route-delta"
        cut()
        assert _kind(_served_cycle(tenant)[1]) == "route-tables"
        # A fresh worker holds nothing.
        cut()
        assert _kind(run_fresh(pickled(tenant.job_payload()))) == "route-tables"
        assert _kind(_served_cycle(tenant)[1]) == "route-delta"
        # A second tenant's job between two of this one's.
        other = TenantState(TenantSpec(name="u", topology="now-c"))
        _served_cycle(other)
        cut()
        assert _kind(_served_cycle(tenant)[1]) == "route-tables"
        # A new tenant of the same name: it names no base, then its own.
        again = TenantState(TenantSpec(name="t", topology="now-c"))
        assert "base" not in again.job_payload()
        assert _kind(_served_cycle(again)[1]) == "route-tables"
        cut()
        assert _kind(_served_cycle(tenant)[1]) == "route-tables"

    def test_a_junk_tables_id_is_a_bad_payload(self):
        outcome = run_map_job(_payload(tables_id=7))
        assert outcome["error"] == "bad-payload" and "tables_id" in outcome["message"]


class TestPlanTimeFallbackIsReported:
    def test_replug_says_why_it_could_not_seed(self):
        """Regression: the planning-time reason used to be written to a
        payload key nothing read, so the cycle reported ``None`` and the
        tenant's ``seed_fallbacks`` counter never moved."""
        tenant = TenantState(TenantSpec(name="t", topology="now-c"))
        _served_cycle(tenant)
        wire = tenant.net.wire_at("C-l2-0", 3)
        tenant.net.disconnect(wire)
        _, cut_outcome = _served_cycle(tenant)
        assert cut_outcome["seeded"] and cut_outcome["seed_fallback"] is None
        tenant.net.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        payload, outcome = _served_cycle(tenant)
        assert "map_seed" not in payload
        assert "seed_skipped" not in payload
        assert not outcome["seeded"]
        assert "connectivity was added" in outcome["seed_fallback"]
        assert tenant.last_cycle["seed_fallback"] == outcome["seed_fallback"]
        assert tenant.seed_fallbacks == 1


def _payload(**overrides) -> dict:
    tenant = TenantState(
        TenantSpec(name="t", topology="ring", params={"size": 4})
    )
    return {**tenant.job_payload(), **overrides}


def _mapper_alone_behind_a_cut() -> dict:
    tenant = TenantState(
        TenantSpec(name="t", topology="ring", params={"size": 4})
    )
    tenant.net.disconnect(tenant.net.wire_at(tenant.mapper_host(), 0))
    return tenant.job_payload()


class TestErrorCodes:
    @pytest.mark.parametrize(
        "make_payload, code",
        [
            (lambda: _payload(network={"nodes": "nope"}), "bad-payload"),
            (lambda: _payload(mapper="ring-s0"), "bad-payload"),
            (lambda: _payload(mapper="no-such-node"), "bad-payload"),
            (
                lambda: _payload(map_seed={"map_result": {"kind": "?"}}),
                "bad-seed",
            ),
            (_mapper_alone_behind_a_cut, "routing-failed"),
        ],
        ids=[
            "malformed-network",
            "switch-as-mapper",
            "unknown-mapper-node",
            "corrupt-seed",
            "mapper-host-isolated",
        ],
    )
    def test_expected_failures_are_outcomes_not_exceptions(
        self, make_payload, code
    ):
        payload = make_payload()
        outcome = run_map_job(payload)
        assert outcome.keys() == FAILURE_KEYS
        assert outcome["ok"] is False
        assert outcome["error"] == code
        assert outcome["message"]

    def test_a_mapping_contradiction_is_an_outcome(self, monkeypatch):
        def contradiction(*args, **kwargs):
            raise MappingError("the probe model contradicts itself")

        monkeypatch.setattr(CycleState, "map", contradiction)
        assert run_fresh(_payload()) == {
            "ok": False,
            "error": "mapping-failed",
            "message": "the probe model contradicts itself",
        }

    def test_a_map_past_the_exploration_limit_is_an_outcome(self, monkeypatch):
        monkeypatch.setattr(mapper_module, "EXPLORATION_LIMIT", 1)
        outcome = run_fresh(_payload())
        assert outcome.keys() == FAILURE_KEYS
        assert outcome["error"] == "exploration-limit"
        assert outcome["message"].startswith("exploration limit reached: 1 switch")

    @pytest.mark.parametrize(
        "end",
        [["ring-s0", 3.7], ["ring-s0", True], [5, 2]],
        ids=["float-port", "bool-port", "int-node"],
    )
    def test_a_seed_end_that_is_no_port_ref_is_a_bad_seed(self, end):
        """Each ``affected`` end of a seed is a ``[node, port]`` pair as
        strict as every other port ref the codecs read. These used to seed
        port 3, port 1 and node "5"."""
        tenant = TenantState(TenantSpec(name="t", topology="ring", params={"size": 4}))
        _served_cycle(tenant)
        payload = tenant.job_payload()
        assert payload["map_seed"]["affected"] == []
        payload["map_seed"]["affected"] = [end]
        outcome = run_fresh(pickled(payload))
        assert outcome.keys() == FAILURE_KEYS
        assert outcome["error"] == "bad-seed" and "malformed port ref" in outcome["message"]


def _no_hosts() -> dict:
    payload = _payload(
        network={"format": "san-map", "version": 1, "hosts": [], "switches": []}
    )
    del payload["mapper"]
    return payload


class TestMalformedPayloads:
    """Every field is decoded inside the one guarded block: these used to
    raise out of the worker. Each is tried on a fresh worker (the decode
    route) and on one holding the same tenant's fabric (the patch route)."""

    @pytest.mark.parametrize(
        "make_payload",
        [
            lambda: _payload(network=["not", "a", "document"]),
            lambda: _payload(network="san-map"),
            _no_hosts,
            lambda: _payload(seed="x"),
            lambda: _payload(seed=[1]),
            lambda: _payload(drop_prob="often"),
            lambda: _payload(corrupt_prob=1.5),
            lambda: _payload(drop_prob=-0.1),
            lambda: _payload(drop_prob=float("nan")),
        ],
        ids=[
            "network-list",
            "network-string",
            "no-hosts-no-mapper",
            "seed-not-numeric",
            "seed-list",
            "drop-prob-not-numeric",
            "corrupt-prob-above-one",
            "drop-prob-negative",
            "drop-prob-nan",
        ],
    )
    def test_decode_failures_are_bad_payload(self, make_payload):
        payload = make_payload()
        fresh = run_fresh(pickled(payload))
        assert run_map_job(_payload())["ok"]
        outcome = run_map_job(pickled(payload))
        for got in (fresh, outcome):
            assert got["ok"] is False and got["error"] == "bad-payload", got
            assert got["message"] and got.keys() == FAILURE_KEYS
        assert not differing(outcome, fresh)
