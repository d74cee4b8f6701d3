"""Simulator workers: the CPU-heavy half of the map server.

One remap cycle — rebuild the tenant's network from JSON, run the
Berkeley mapper through a full middleware stack, compile and check UP*/
DOWN* routes, verify the map against the effective fabric — is pure CPU
and would stall the event loop for tens of milliseconds to minutes (scale
tiers). The server therefore dispatches :func:`run_map_job` into a
``ProcessPoolExecutor``; everything crossing the pool boundary is a plain
JSON-able dict (the payload built by :meth:`TenantState.job_payload`, the
outcome consumed by :meth:`TenantState.adopt`), so the pool never pickles
live simulator state and a worker crash loses exactly one cycle.

Each worker process builds one seeded simulator per job: probe RNG,
fault RNG and mapper exploration order all derive from the payload's
seed, so a cycle's outcome is a deterministic function of its payload —
re-running a failed payload reproduces the failure bit-for-bit.
"""

from __future__ import annotations

from repro.core.instrumentation import analyze_records
from repro.core.mapper import MappingError, MapSeed
from repro.core.remapper import map_cycle, route_cycle
from repro.service.serialize import (
    map_result_from_dict,
    map_result_to_dict,
    route_tables_to_dict,
)
from repro.service.tenant import dead_wires_from_doc
from repro.simulator.faults import FaultModel
from repro.simulator.stack import TraceBusLayer, describe_stack
from repro.topology.analysis import core_network, effective_network
from repro.topology.isomorphism import match_networks
from repro.topology.serialize import network_from_dict

__all__ = ["run_map_job"]


def _mapping_failure(payload: dict, kind: str, message: str) -> dict:
    return {
        "ok": False,
        "tenant": payload.get("tenant", "?"),
        "net_epoch": payload.get("net_epoch"),
        "error": kind,
        "message": message,
    }


def run_map_job(payload: dict) -> dict:
    """Run one complete map→routes→verify cycle from a JSON payload.

    Decode the payload, run the shared :func:`~repro.core.remapper.
    map_cycle` and :func:`~repro.core.remapper.route_cycle`, verify the
    map against the effective fabric, encode. Returns a JSON-able outcome
    dict: ``ok`` plus either the serialized ``map_result``/``tables`` and
    verification verdicts, or an ``error`` code and message. Only
    *expected* failures (an unusable payload or seed, a probe-model
    contradiction, an unroutable map) are converted to error outcomes;
    anything else propagates and surfaces in the server log — a bug must
    keep its traceback (SAN006 discipline).
    """
    try:
        net = network_from_dict(payload["network"])
        dead = dead_wires_from_doc(payload.get("dead_wires", []))
    except (KeyError, TypeError, ValueError) as exc:
        return _mapping_failure(payload, "bad-payload", str(exc))
    mapper_host = payload.get("mapper") or sorted(net.hosts)[0]
    if mapper_host not in net.hosts:
        return _mapping_failure(
            payload, "bad-payload", f"mapper {mapper_host!r} is not a host"
        )
    faults = FaultModel(
        drop_prob=float(payload.get("drop_prob", 0.0)),
        corrupt_prob=float(payload.get("corrupt_prob", 0.0)),
        dead_wires=dead,
        seed=int(payload.get("seed", 0)),
    )
    seed = None
    if "map_seed" in payload:
        seed_doc = payload["map_seed"]
        try:
            seed = MapSeed.from_result(
                map_result_from_dict(seed_doc["map_result"]),
                frozenset(
                    (str(n), int(p)) for n, p in seed_doc.get("affected", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            return _mapping_failure(payload, "bad-seed", str(exc))

    records: list = []
    try:
        result, svc = map_cycle(
            net,
            mapper_host,
            faults=faults,
            seed=seed,
            layers=(TraceBusLayer((records.append,)),),
        )
    except MappingError as exc:
        return _mapping_failure(payload, "mapping-failed", str(exc))
    try:
        tables, deadlock_free = route_cycle(result.network)
    except ValueError as exc:
        # A fabric split can leave the mapper's component too degenerate
        # to route (e.g. the mapper host alone behind the cut). Expected
        # under faults, so it degrades the tenant instead of crashing.
        return _mapping_failure(payload, "routing-failed", str(exc))
    # The effective fabric the map must match: the actual network minus
    # dead cables (a dead wire answers no probe, exactly like a cut one),
    # restricted to the mapper's connected component — a cut that splits
    # the fabric hides the far side from in-band discovery, it does not
    # make the near side unmappable.
    effective = effective_network(net, faults, mapper_host)
    report = match_networks(result.network, core_network(effective))
    analysis = analyze_records(records)
    cache = svc.eval_cache_stats

    return {
        "ok": True,
        "tenant": payload.get("tenant", "?"),
        "net_epoch": payload.get("net_epoch"),
        "map_result": map_result_to_dict(result),
        "tables": route_tables_to_dict(tables),
        "n_routes": sum(len(t) for t in tables.values()),
        "deadlock_free": deadlock_free,
        "isomorphic": bool(report),
        "mismatch": None if report else report.reason,
        "probes": result.stats.total_probes,
        "elapsed_ms": result.stats.elapsed_ms,
        "seeded": result.seeded,
        "kept_nodes": result.kept_nodes,
        # The mapper's own reason, else the one seed planning gave.
        "seed_fallback": result.seed_fallback or payload.get("seed_fallback"),
        "stack": describe_stack(svc),
        "trace": {
            "probes": analysis.total,
            "hits": analysis.hits,
            "answered_us": analysis.answered_us,
            "timeout_us": analysis.timeout_us,
            "by_length": {
                str(length): list(pair)
                for length, pair in sorted(analysis.by_length.items())
            },
        },
        "eval_cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "hinted": cache.hinted,
            "hit_rate": round(cache.hit_rate, 4),
            "nodes": cache.nodes,
        },
    }
