"""Simulator workers: the CPU-heavy half of the map server.

One remap cycle — bring the tenant's network up to date from JSON, run
the Berkeley mapper on the layer-less probe stack the daemon builds,
compile UP*/DOWN* routes, verify the map against the effective fabric —
is pure CPU and would stall the event loop for tens of milliseconds to
minutes (scale tiers). The server therefore dispatches
:func:`run_map_job` into a ``ProcessPoolExecutor``; everything crossing
the pool boundary is a plain JSON-able dict (the payload built by :meth:`TenantState.job_payload`, the
outcome consumed by :meth:`TenantState.adopt`), so the pool never pickles
live simulator state. An outcome carries only what the worker alone
knows — the map, the tables, its isomorphism verdict and its
evaluation-cache counters; the server takes the epoch, the tables' id
and every count from the payload it sent and the map and tables it
decodes, and it checks the tables deadlock-free itself.

Each worker process keeps one slot from one job to the next: the last
job's key (tenant, mapper host and the document's node fields) and a
:class:`~repro.core.remapper.CycleState`, the one
:class:`~repro.core.remapper.RemapperDaemon` keeps from one cycle to the
next — the fabric that job decoded, the depth bound's and the root pick's
distance memos and the route memo. A job with the held key patches the
held fabric by the wires that changed, so the probe walks cached on it
(``Network.walk_trie``) are pruned by the journal instead of walked
again; any other job decodes its document whole and starts a new state.
The seed still travels in the payload, planned by the server from the
tenant's journal (``docs/INCREMENTAL.md``, Layer 5). The state is exact,
so a slot changes how long a job takes, never what it answers: probe
RNG, fault RNG and mapper exploration order all derive from the payload's
seed, and an outcome is a deterministic function of its payload except
for its ``eval_cache`` counters — re-running a failed payload reproduces
the failure bit-for-bit. The one exception is how the tables are
written: the slot also keeps the ``tables_id`` of the payload whose
generation its route memo holds, and when the payload names that one as
its ``base`` and the compile patched it, the outcome carries a
``route-delta`` against it instead of whole ``route-tables``.

A job takes the slot out while it runs and puts it back only when it
returns an outcome, so a raised exception, or a second job beside it on a
thread pool, never meets a half-patched fabric. A worker crash loses one
cycle and the slot: the server replaces the process pool the dead worker
broke, and the next job decodes whole on a fresh worker.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.core.mapper import ExplorationLimitError, MappingError, MapSeed
from repro.core.remapper import CycleState
from repro.service.serialize import (
    _port_ref,
    map_result_from_dict,
    map_result_to_dict,
    route_delta_to_dict,
    route_tables_to_dict,
)
from repro.simulator.faults import FaultModel
from repro.topology.analysis import core_network, effective_network
from repro.topology.isomorphism import match_networks
from repro.topology.model import Network
from repro.topology.serialize import network_from_dict, wire_from_dict

__all__ = ["run_map_job"]

#: The document fields a patch keeps: everything but the wires.
_HEADER = ("format", "version", "default_radix", "hosts", "switches")

_Ends = tuple[str, int, str, int]


@dataclass(slots=True)
class _Slot:
    """What a worker keeps from its last job."""

    #: The payload's tenant and mapper, then the document's :data:`_HEADER`
    #: fields.
    key: tuple
    state: CycleState
    #: The ``tables_id`` of the payload whose generation the route memo
    #: holds (None: none held).
    tables_id: str | None


#: Between jobs: empty, or ``{"slot": the slot the last job put back}``.
_held: dict[str, _Slot] = {}


def _in_order(wire: _Ends) -> _Ends:
    a, pa, b, pb = wire
    return wire if (a, pa) <= (b, pb) else (b, pb, a, pa)


def _patch(net: Network, doc: dict) -> None:
    """Bring the held fabric to ``doc`` by the wires that changed: one
    disconnect per lost wire and one ``connect_all`` of the new ones.
    Raises what decoding ``doc`` would, or ``ValueError`` when it lists a
    wire twice (a set of wires cannot see that)."""
    wires = [wire_from_dict(wire) for wire in doc.get("wires", [])]
    now = set(map(_in_order, wires))
    if len(now) != len(wires):
        raise ValueError("a wire is listed twice")
    held = {_in_order((*w.a, *w.b)) for w in net.wires}
    for a, pa, _, _ in sorted(held - now):
        net.disconnect(net.wire_at(a, pa))
    net.connect_all(wire for wire in wires if _in_order(wire) not in held)


def _take_slot(payload: dict) -> _Slot:
    """The slot this job runs on: the held one patched to the payload's
    network when it is the same tenant's with the same nodes, else a new
    one decoded whole (raising what :func:`network_from_dict` raises)."""
    held = _held.pop("slot", None)
    doc = payload["network"]
    key = (payload.get("tenant"), payload.get("mapper"))
    if isinstance(doc, dict):
        key += tuple(map(doc.get, _HEADER))
    if held is not None and held.key == key:
        try:
            _patch(held.state.net, doc)
        except (KeyError, TypeError, ValueError):
            # The held fabric may be half-patched: it is dropped, and the
            # whole decode below raises what a fresh worker raises.
            pass
        else:
            return held
    return _Slot(key, CycleState(network_from_dict(doc)), None)


def _failure(kind: str, message: str) -> dict:
    return {"ok": False, "error": kind, "message": message}


def run_map_job(payload: dict) -> dict:
    """Run one complete map→routes→verify cycle from a JSON payload.

    Decode the payload, run the shared :func:`~repro.core.remapper.
    map_cycle` and :func:`~repro.core.remapper.route_cycle`, verify the
    map against the effective fabric, encode. Returns a JSON-able outcome
    dict: ``ok`` plus either the serialized ``map_result`` and ``tables``,
    the isomorphism verdict (``isomorphic``, ``mismatch``) and the probe
    service's ``eval_cache`` counters, or an ``error`` code and
    ``message``. The tables are not checked deadlock-free here: the
    server checks what it adopts. Only *expected* failures (an unusable
    payload or seed, a probe-model contradiction, a map that reached the
    exploration limit, an unroutable map) are
    converted to error outcomes; anything else propagates and surfaces in
    the server log — a bug must keep its traceback (SAN006 discipline).
    """
    slot = None
    try:
        slot = _take_slot(payload)
        net = slot.state.net
        mapper_host = payload.get("mapper") or min(net.hosts, default=None)
        if mapper_host not in net.hosts:
            raise ValueError(f"mapper {mapper_host!r} is not a host")
        # The fabric's names are interned (network_from_dict): so is the
        # map's own host, or a pickled outcome carries the name twice.
        mapper_host = sys.intern(mapper_host)
        if not isinstance(payload.get("tables_id"), (str, type(None))):
            raise ValueError("tables_id is not a string")
        faults = FaultModel(
            drop_prob=float(payload.get("drop_prob", 0.0)),
            corrupt_prob=float(payload.get("corrupt_prob", 0.0)),
            seed=int(payload.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        outcome = _failure("bad-payload", str(exc))
    else:
        outcome = _cycle(payload, slot, mapper_host, faults)
    if slot is not None:
        _held["slot"] = slot
    return outcome


def _cycle(payload: dict, slot: _Slot, mapper_host: str, faults: FaultModel) -> dict:
    """The cycle of :func:`run_map_job` on a decoded payload."""
    state = slot.state
    seed = None
    if "map_seed" in payload:
        seed_doc = payload["map_seed"]
        try:
            ends = [_port_ref(end, "map-seed") for end in seed_doc.get("affected", [])]
            seed = MapSeed.from_result(
                map_result_from_dict(seed_doc["map_result"]),
                frozenset(ends),
            )
        except (KeyError, TypeError, ValueError) as exc:
            return _failure("bad-seed", str(exc))

    try:
        result, svc = state.map(mapper_host, faults, seed=seed)
    except ExplorationLimitError as exc:
        return _failure("exploration-limit", str(exc))
    except MappingError as exc:
        return _failure("mapping-failed", str(exc))
    try:
        tables = state.route(result.network)
    except ValueError as exc:
        # A fabric split can leave the mapper's component too degenerate
        # to route (e.g. the mapper host alone behind the cut). Expected
        # under faults, so it degrades the tenant instead of crashing.
        return _failure("routing-failed", str(exc))
    # The tables as what changed since the generation the payload names,
    # when this worker holds that one and the compile patched it; else whole.
    doc = None
    held = state.route_memo.generation
    if held is not None and slot.tables_id is not None and payload.get("base") == slot.tables_id:
        doc = route_delta_to_dict(tables, (slot.tables_id, held))
    state.route_memo.commit(tables)
    slot.tables_id = payload.get("tables_id")
    # The effective fabric the map must match: the actual network
    # restricted to the mapper's connected component — a cut that splits
    # the fabric hides the far side from in-band discovery, it does not
    # make the near side unmappable.
    effective = effective_network(state.net, faults, mapper_host)
    report = match_networks(result.network, core_network(effective))
    cache = svc.eval_cache_stats

    return {
        "ok": True,
        "map_result": map_result_to_dict(result),
        "tables": route_tables_to_dict(tables) if doc is None else doc,
        "isomorphic": bool(report),
        "mismatch": None if report else report.reason,
        "eval_cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hit_rate, 4),
            "nodes": cache.nodes,
        },
    }
