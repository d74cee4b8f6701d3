"""The oracle of the worker-slot tests: a fresh worker beside the one
that keeps its slot, and what of an outcome the two must agree on."""

from __future__ import annotations

import json
import pickle

from repro.routing.compile_routes import RouteGeneration
from repro.routing.deadlock import routes_deadlock_free
from repro.service import workers
from repro.service.serialize import (
    map_result_from_dict,
    route_tables_from_dict,
    route_tables_to_dict,
)
from repro.service.tenant import TenantState
from repro.service.workers import run_map_job
from repro.topology.model import Network
from repro.topology.serialize import network_to_dict


def pickled(payload: dict) -> dict:
    """The payload as a pool hands it to a worker: pickled and back."""
    return pickle.loads(pickle.dumps(payload))


def run_fresh(payload: dict) -> dict:
    """``run_map_job`` as a new worker process runs it, with an empty
    slot; the slot held before is held again afterwards."""
    held = dict(workers._held)
    workers._held.clear()
    try:
        return run_map_job(payload)
    finally:
        workers._held.clear()
        workers._held.update(held)


def differing(
    outcome: dict, fresh: dict, base: tuple[str, RouteGeneration] | None = None
) -> list[str]:
    """The keys, ``eval_cache`` aside, whose values two outcomes do not
    share as JSON (a list to assert empty: pytest would spend minutes
    diffing two ~100 kB documents). A ``route-delta`` in ``outcome`` is
    applied to ``base`` first and compared as the version-4 document of
    the generation it gives."""
    tables = outcome.get("tables")
    if isinstance(tables, dict) and tables.get("kind") == "route-delta":
        applied = route_tables_from_dict(tables, base=base)
        outcome = {**outcome, "tables": route_tables_to_dict(applied)}
    return sorted(
        key
        for key in (outcome.keys() | fresh.keys()) - {"eval_cache"}
        if key not in outcome
        or key not in fresh
        or json.dumps(outcome[key], sort_keys=True) != json.dumps(fresh[key], sort_keys=True)
    )


def adopt(tenant: TenantState, payload: dict, outcome: dict) -> dict:
    """Adopt an ``ok`` outcome of ``payload`` as the server does: its map
    and generation decoded (a delta applied to the tenant's), the
    generation checked deadlock-free. Returns the outcome as the server's
    cycle returns it, with the summary the tenant adopted."""
    result = map_result_from_dict(outcome["map_result"])
    tables = route_tables_from_dict(outcome["tables"], base=tenant.base)
    assert routes_deadlock_free(tables)
    return {**outcome, **tenant.adopt(payload, outcome, result, tables)}


def holds(payload: dict) -> bool:
    """Does the worker hold a fabric, and serialize to the payload's
    network document?"""
    net = held_network()
    return net is not None and network_to_dict(net) == payload["network"]


def held_network() -> Network | None:
    """The fabric the worker holds between jobs, if any."""
    slot = workers._held.get("slot")
    return None if slot is None else slot.state.net
