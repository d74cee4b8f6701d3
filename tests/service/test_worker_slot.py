"""The worker's slot: a worker that keeps its last tenant's fabric and
memos answers every job exactly as a fresh worker does.

``run_map_job`` keeps one slot per process (the last job's key, its
fabric, two distance memos and a route memo) and patches the held fabric
when the next job is the same tenant's with the same nodes. The slot may
change what a job costs, never what it answers: after every job below,
every outcome key but ``eval_cache`` is JSON-equal to what a worker with
an emptied slot returns for the same payload, and the held fabric
serializes to the payload's network document. A ``route-delta`` is
compared as the generation it gives applied to the tenant's, which is
the fresh worker's whole document decoded, field for field. Payloads go
through pickle first, as they do through the pool.

Hand-run mutants, each failing this suite:

- the patch route taken on a key match alone (a new host's wire is then
  patched onto a fabric that lacks the host);
- the tenant left out of the key;
- the duplicate-wire check dropped (a document listing one wire twice
  then maps instead of coming back ``bad-payload``);
- the removed wires not disconnected, or the added ones not connected;
- the slot put back after a patch that raised;
- the slot read instead of taken out (concurrent jobs then patch one
  fabric);
- the slot never kept.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service.serialize import route_tables_from_dict
from repro.service.tenant import TenantSpec, TenantState
from repro.service.workers import run_map_job
from tests.service.worker_slot import adopt, differing, held_network, holds, pickled, run_fresh

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OPS = st.sampled_from(("cold", "cut", "plug", "cut+plug", "grow"))


class _Tenant:
    """One served tenant, cut and plugged between jobs, adopting each
    outcome the way the server does."""

    def __init__(self, name: str, topology: str) -> None:
        self.spec = TenantSpec(name=name, topology=topology)
        self.state = TenantState(self.spec)
        self.cut: list[tuple[str, int, str, int]] = []

    def step(self, op: str, pick: int) -> None:
        net = self.state.net
        if op == "cold":
            # A restarted tenant: the whole fabric, no prior map to seed from.
            self.state, self.cut = TenantState(self.spec), []
            return
        if op == "grow":
            # A new host on a free switch port no cut cable waits for: the
            # node set changes.
            waiting = {end for a, pa, b, pb in self.cut for end in ((a, pa), (b, pb))}
            free = [
                (s, p)
                for s in sorted(net.switches)
                for p in net.free_ports(s)
                if (s, p) not in waiting
            ]
            switch, port = free[pick % len(free)]
            host = net.add_host(f"new-h{len(net.hosts)}")
            net.connect(host, 0, switch, port)
            return
        if op in ("plug", "cut+plug") and self.cut:
            net.connect(*self.cut.pop(0))
        if op in ("cut", "cut+plug"):
            inner = sorted(
                (w for w in net.wires if net.is_switch(w.a.node) and net.is_switch(w.b.node)),
                key=lambda w: (w.a, w.b),
            )
            wire = inner[pick % len(inner)]
            net.disconnect(wire)
            self.cut.append((wire.a.node, wire.a.port, wire.b.node, wire.b.port))

    def nodes(self) -> tuple[list[str], list[str]]:
        net = self.state.net
        return sorted(net.hosts), sorted(net.switches)

    def serve(self) -> tuple[dict, bool]:
        """One job through the stateful worker, checked against a fresh
        one; returns the outcome (an ok one with the summary the tenant
        adopted) and whether the held fabric was kept."""
        payload = self.state.job_payload()
        before = held_network()
        outcome = run_map_job(pickled(payload))
        kept = before is not None and held_network() is before
        fresh = run_fresh(pickled(payload))
        assert not differing(outcome, fresh, self.state.base)
        assert holds(payload)
        if outcome["ok"]:
            outcome = adopt(self.state, payload, outcome)
            # A delta applied to the tenant's generation is the fresh
            # worker's whole document decoded, field for field.
            full = route_tables_from_dict(fresh["tables"])
            for name in ("channels", "chains", "pairs", "heads", "numbered"):
                assert getattr(self.state.tables, name) == getattr(full, name), name
        return outcome, kept


class TestSequences:
    @settings(**_SETTINGS)
    @given(
        topology=st.sampled_from(("now-c", "now-full")),
        steps=st.lists(st.tuples(OPS, st.integers(0, 10**6)), min_size=1, max_size=5),
    )
    def test_cold_cut_plug_sequences(self, topology, steps):
        tenant = _Tenant("t", topology)
        tenant.serve()
        for op, pick in steps:
            nodes = tenant.nodes()
            tenant.step(op, pick)
            _, kept = tenant.serve()
            # Same tenant, same nodes: the held fabric was patched; another
            # node set is decoded whole.
            assert kept == (tenant.nodes() == nodes), op

    @settings(**_SETTINGS)
    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 1), OPS, st.integers(0, 10**6)),
            min_size=2,
            max_size=6,
        )
    )
    def test_two_tenants_interleaved_through_one_worker(self, steps):
        tenants = [_Tenant("a", "now-c"), _Tenant("b", "now-c")]
        tenants[0].serve()
        last = 0
        held_nodes = tenants[0].nodes()
        for which, op, pick in steps:
            tenant = tenants[which]
            tenant.step(op, pick)
            _, kept = tenant.serve()
            # The key is the tenant: another tenant's fabric is never
            # patched, even when it has the same nodes.
            assert kept == (which == last and tenant.nodes() == held_nodes), (which, last)
            last, held_nodes = which, tenant.nodes()


class TestFailuresMidSequence:
    def test_bad_payload_and_routing_failure_between_cuts(self):
        tenant = _Tenant("t", "now-c")
        tenant.serve()
        tenant.step("cut", 5)
        tenant.serve()
        net = tenant.state.net

        # Patch route, a wire that names no port: the held fabric may be
        # half-patched, so it is dropped and the fault named as a whole
        # decode names it.
        payload = tenant.state.job_payload()
        payload["network"]["wires"][0]["a"]["port"] = "x"
        outcome = run_map_job(pickled(payload))
        assert outcome["error"] == "bad-payload"
        assert not differing(outcome, run_fresh(pickled(payload)))
        assert held_network() is None
        _, kept = tenant.serve()
        assert not kept

        # A wire listed twice, either way round: a set of wires would not
        # see it, network_from_dict does.
        for flip in (False, True):
            payload = tenant.state.job_payload()
            wire = dict(payload["network"]["wires"][3])
            if flip:
                wire = {"a": wire["b"], "b": wire["a"]}
            payload["network"]["wires"].append(wire)
            outcome = run_map_job(pickled(payload))
            assert outcome["error"] == "bad-payload", outcome
            assert "already wired" in outcome["message"]
            assert not differing(outcome, run_fresh(pickled(payload)))
            tenant.serve()

        # The mapper alone behind a cut: an outcome, so the patched fabric
        # and the memos stay held, and the next jobs still match.
        mapper = tenant.state.mapper_host()
        host_wire = net.wire_at(mapper, 0)
        net.disconnect(host_wire)
        outcome, kept = tenant.serve()
        assert outcome["error"] == "routing-failed" and kept
        net.connect(host_wire.a.node, host_wire.a.port, host_wire.b.node, host_wire.b.port)
        outcome, kept = tenant.serve()
        assert outcome["ok"] and kept
        tenant.step("cut", 11)
        outcome, kept = tenant.serve()
        assert outcome["ok"] and outcome["seeded"] and kept


class TestThreadPool:
    def test_two_concurrent_jobs_for_one_tenant(self):
        """Each job takes the slot out while it runs: a job beside it finds
        no slot and decodes whole, so none sees another's patch. Four
        threads on two payloads of one tenant, with the interpreter
        switching threads every 100 µs."""
        tenant = _Tenant("t", "now-full")
        tenant.serve()
        payloads = [tenant.state.job_payload()]
        tenant.step("cut", 7)
        payloads.append(tenant.state.job_payload())
        want = [run_fresh(pickled(p)) for p in payloads]
        start = threading.Barrier(4, timeout=60)

        def job(payload: dict) -> dict:
            start.wait()
            return run_map_job(payload)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(2):
                    futures = [pool.submit(job, pickled(p)) for p in payloads * 2]
                    got = [future.result(timeout=120) for future in futures]
                    base = tenant.state.base
                    assert not any(differing(g, w, base) for g, w in zip(got, want * 2))
                    assert holds(payloads[0]) or holds(payloads[1])
        finally:
            sys.setswitchinterval(interval)
