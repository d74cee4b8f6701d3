"""Per-tenant state: one virtual cluster inside the map server.

A tenant is an independent virtual cluster — its own actual network, its
own fault state, its own map/route generation — identified by name. The
server holds a :class:`TenantState` per tenant; everything a simulator
worker needs to run one remap cycle for it travels as a JSON payload
(:meth:`TenantState.job_payload`), so tenants stay isolated even across
process boundaries: a worker crash or a mapping failure in one tenant
never touches another tenant's state.

:class:`TenantSpec` is the JSON-able description (``san-map serve
--config`` is a list of these); :func:`build_tenant_network` turns the
spec's topology stanza into an actual :class:`Network` through the
generator vocabulary ``san-map generate`` uses
(:func:`repro.topology.generators.build_named_topology`).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.mapper import MapResult
from repro.routing.compile_routes import RouteGeneration
from repro.service.serialize import SerializationError
from repro.topology.delta import seedable_removals
from repro.topology.generators.named import NAMED_TOPOLOGIES, build_named_topology, unread_keys
from repro.topology.model import Network
from repro.topology.serialize import network_from_dict, network_to_dict

__all__ = ["TenantSpec", "TenantState", "build_tenant_network"]

#: Topology kinds a spec may name: every kind of the one registry, and an
#: explicit inline network document.
TOPOLOGY_KINDS = (*NAMED_TOPOLOGIES, "explicit")


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """JSON-able description of one virtual cluster."""

    name: str
    topology: str = "now-c"
    #: Generator parameters (``size``, ``hosts_per_switch``, ``k``, ... or
    #: ``network`` for an explicit inline topology document).
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Probe-injecting host; ``None`` picks the first host by name.
    mapper: str | None = None
    #: Seed for the tenant's fault RNG (and topology generator where used).
    seed: int = 0
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.topology not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of "
                f"{', '.join(TOPOLOGY_KINDS)}"
            )

    @classmethod
    def from_dict(cls, data: Any) -> "TenantSpec":
        """The spec a JSON object describes; refuses any key or value it
        would otherwise have to guess at (a misspelled probability must not
        load as a fault-free tenant)."""
        if not isinstance(data, dict):
            raise SerializationError("tenant spec: expected an object")
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise SerializationError(f"tenant spec: unknown keys {unknown}")
        if not isinstance(data.get("name"), str):
            raise SerializationError("tenant spec: missing string field 'name'")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise SerializationError("tenant spec: 'params' is not an object")
        topology = data.get("topology", "now-c")
        kind = NAMED_TOPOLOGIES.get(topology) if isinstance(topology, str) else None
        if kind is not None or topology == "explicit":
            unread = unread_keys(params, kind.defaults if kind is not None else ("network",))
            if unread:
                raise SerializationError(
                    f"tenant spec: topology {topology!r} reads no params {unread}"
                )
        mapper = data.get("mapper")
        if mapper is not None and not isinstance(mapper, str):
            raise SerializationError("tenant spec: 'mapper' is not a string")
        seed = data.get("seed", 0)
        if type(seed) is not int:
            raise SerializationError("tenant spec: 'seed' is not an integer")
        probs = {key: data.get(key, 0.0) for key in ("drop_prob", "corrupt_prob")}
        for key, value in probs.items():
            if type(value) not in (int, float):
                raise SerializationError(f"tenant spec: {key!r} is not a number")
        try:
            if kind is not None:
                kind.resolve(params)  # every parameter value casts
            return cls(
                name=data["name"],
                topology=topology,
                params=params,
                mapper=mapper,
                seed=seed,
                **{key: float(value) for key, value in probs.items()},
            )
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"tenant spec: {exc}") from exc


def build_tenant_network(spec: TenantSpec) -> Network:
    """Materialize the spec's topology stanza as an actual network."""
    if spec.topology != "explicit":
        return build_named_topology(
            spec.topology, {"seed": spec.seed, **spec.params}
        )
    # "explicit": the topology document travels inside the spec itself.
    try:
        return network_from_dict(spec.params["network"])
    except KeyError:
        raise SerializationError(
            "tenant spec: explicit topology requires params['network']"
        ) from None
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"tenant spec: bad explicit network: {exc}") from exc


class TenantState:
    """Everything the server holds for one tenant.

    Mutated only from the event loop (asyncio is single-threaded), so no
    locking: route lookups read ``tables`` between any two awaits, and a
    finished remap cycle swaps the whole generation in one assignment.
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.net = build_tenant_network(spec)
        if spec.mapper is not None and spec.mapper not in self.net.hosts:
            raise SerializationError(
                f"tenant {spec.name!r}: mapper {spec.mapper!r} is not a host of its fabric"
            )
        #: Current route-table generation; ``None`` until the first
        #: successful cycle. Swapped atomically, never mutated in place.
        self.tables: RouteGeneration | None = None
        #: The id the payload that produced ``tables`` gave them, which the
        #: next payload names as its ``base``: a fresh random one per
        #: payload, so no worker, server or tenant holds another's.
        self.tables_id: str | None = None
        self.generation = 0
        #: Serialized MapResult of the last successful cycle (the witness
        #: seed for the next incremental cycle travels from this).
        self.last_result_doc: dict | None = None
        self.net_epoch_at_last_map: int | None = None
        #: Most recent cycle summary (shape documented in SERVICE.md).
        self.last_cycle: dict | None = None
        self.status = "unmapped"
        # Aggregate counters, exposed by the stats op.
        self.maps_completed = 0
        self.maps_failed = 0
        self.seed_fallbacks = 0
        self.probes_total = 0
        self.route_queries = 0
        self.route_misses = 0

    # ------------------------------------------------------------------
    def mapper_host(self) -> str:
        if self.spec.mapper is not None:
            return self.spec.mapper
        return sorted(self.net.hosts)[0]

    @property
    def base(self) -> tuple[str, RouteGeneration] | None:
        """The served generation under its id: what a ``route-delta``
        outcome is applied to (None before the first)."""
        if self.tables is None or self.tables_id is None:
            return None
        return self.tables_id, self.tables

    def job_payload(self) -> dict:
        """The JSON document a simulator worker maps this tenant from.

        Names the served generation as ``base`` and the one it asks for as
        ``tables_id``: a worker that holds the base may answer with what
        changed since it. Includes a witness seed when a prior map exists
        and the tenant's delta journal can prove what changed since it (the
        soundness ladder of :func:`repro.topology.delta.seedable_removals`,
        the one :class:`RemapperDaemon` climbs); when it cannot, the reason
        travels instead and comes back as the cycle's ``seed_fallback``.
        A tenant's faults are its spec's probabilities, which nothing
        changes, so only the network's journal is consulted.
        """
        payload: dict[str, Any] = {
            "tenant": self.spec.name,
            # Snapshotted *before* dispatch: a topology mutation that lands
            # while the worker runs is charged to the next cycle's delta.
            "net_epoch": self.net.topology_epoch,
            "network": network_to_dict(self.net),
            "mapper": self.mapper_host(),
            "seed": self.spec.seed,
            "drop_prob": self.spec.drop_prob,
            "corrupt_prob": self.spec.corrupt_prob,
            "tables_id": secrets.token_hex(16),
        }
        if self.base is not None:
            payload["base"] = self.tables_id
        if self.last_result_doc is not None and self.net_epoch_at_last_map is not None:
            affected, reason = seedable_removals(
                self.net.affected_since(self.net_epoch_at_last_map)
            )
            if affected is None:
                payload["seed_fallback"] = reason
            else:
                payload["map_seed"] = {
                    "map_result": self.last_result_doc,
                    "affected": sorted([n, p] for n, p in affected),
                }
        return payload

    def adopt(
        self,
        payload: dict,
        outcome: dict,
        result: MapResult | None,
        tables: RouteGeneration | None,
    ) -> dict:
        """Fold a finished worker cycle into the tenant (event loop only)
        and return its summary, which becomes ``last_cycle``.

        ``payload`` is what was sent for the cycle; ``result`` and
        ``tables`` are the outcome's map and generation as the server
        decoded them, the generation checked deadlock-free (both None when
        it accepted none). The epoch, the tables' id and every count come
        from these, never from the worker's word; of the outcome only the
        worker's own verdicts and counters are kept. A failed or
        unverified cycle never touches the served tables: the tenant keeps
        answering route queries from the previous generation and only the
        status/counters record the failure.
        """
        cycle = {
            k: outcome[k]
            for k in ("ok", "error", "message", "mismatch", "isomorphic", "eval_cache")
            if k in outcome
        }
        if result is not None:
            cycle.update(
                seeded=result.seeded,
                # The mapper's own reason, else the one seed planning gave.
                seed_fallback=result.seed_fallback or payload.get("seed_fallback"),
                kept_nodes=result.kept_nodes,
                probes=result.stats.total_probes,
                elapsed_ms=result.stats.elapsed_ms,
            )
        if tables is not None:
            cycle.update(n_routes=sum(len(t) for t in tables.values()), deadlock_free=True)
        adopted = (
            result is not None and tables is not None and bool(outcome.get("isomorphic"))
        )
        cycle["adopted"] = adopted
        self.last_cycle = cycle
        if not adopted:
            # An unverified map (faults corrupted discovery) is as unusable
            # as a MappingError: keep the previous generation, do not let
            # the bad map seed the next cycle, and record why.
            self.maps_failed += 1
            self.status = "degraded" if self.tables is not None else "failed"
            return cycle
        if cycle["seed_fallback"]:
            self.seed_fallbacks += 1
        self.maps_completed += 1
        self.probes_total += cycle["probes"]
        self.last_result_doc = outcome["map_result"]
        self.net_epoch_at_last_map = payload["net_epoch"]
        self.tables = tables
        self.tables_id = payload["tables_id"]
        self.generation += 1
        self.status = "mapped"
        return cycle
