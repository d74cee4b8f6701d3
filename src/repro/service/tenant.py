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

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.routing.compile_routes import RouteGeneration
from repro.service.serialize import SerializationError
from repro.simulator.faults import FaultModel
from repro.topology.delta import EMPTY_DELTA, seedable_removals
from repro.topology.generators import NAMED_TOPOLOGIES, build_named_topology
from repro.topology.model import Network, PortRef
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
            reads = kind.defaults if kind is not None else ("network",)
            unread = sorted(set(params) - set(reads))
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


def _dead_wires_doc(faults: FaultModel) -> list:
    doc = []
    for pair in faults.dead_wires:
        ends = sorted(
            [[end.node, end.port] for end in pair]
        )
        doc.append(ends)
    return sorted(doc)


def dead_wires_from_doc(doc: Any) -> frozenset[frozenset]:
    """Rebuild a :class:`FaultModel` dead-wire set from its JSON form."""
    if not isinstance(doc, list):
        raise SerializationError("dead wires: expected a list")
    wires = []
    for pair in doc:
        if not isinstance(pair, list) or not 1 <= len(pair) <= 2:
            raise SerializationError(f"dead wires: malformed wire {pair!r}")
        ends = []
        for end in pair:
            if (
                not isinstance(end, list)
                or len(end) != 2
                or not isinstance(end[0], str)
                or not isinstance(end[1], int)
                or isinstance(end[1], bool)
            ):
                raise SerializationError(f"dead wires: malformed end {end!r}")
            ends.append(PortRef(end[0], end[1]))
        wires.append(frozenset(ends))
    return frozenset(wires)


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
        self.faults = FaultModel(
            drop_prob=spec.drop_prob,
            corrupt_prob=spec.corrupt_prob,
            seed=spec.seed,
        )
        #: Current route-table generation; ``None`` until the first
        #: successful cycle. Swapped atomically, never mutated in place.
        self.tables: RouteGeneration | None = None
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

    def job_payload(self) -> dict:
        """The JSON document a simulator worker maps this tenant from.

        Includes a witness seed when a prior map exists and the tenant's
        delta journal can prove what changed since it (the soundness ladder of
        :func:`repro.topology.delta.seedable_removals`, the one
        :class:`RemapperDaemon` climbs); when it cannot, the reason
        travels instead and comes back as the outcome's ``seed_fallback``.
        No server op reconfigures ``self.faults``, so only the network's
        journal is consulted.
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
            "dead_wires": _dead_wires_doc(self.faults),
        }
        if self.last_result_doc is not None and self.net_epoch_at_last_map is not None:
            affected, reason = seedable_removals(
                self.net.affected_since(self.net_epoch_at_last_map), EMPTY_DELTA
            )
            if affected is None:
                payload["seed_fallback"] = reason
            else:
                payload["map_seed"] = {
                    "map_result": self.last_result_doc,
                    "affected": sorted([n, p] for n, p in affected),
                }
        return payload

    def adopt(self, outcome: dict, tables: RouteGeneration | None) -> None:
        """Fold a finished worker cycle into the tenant (event loop only).

        A failed or unverified cycle never touches the served tables: the
        tenant keeps answering route queries from the previous generation
        and only the status/counters record the failure.
        """
        adopted = (
            bool(outcome.get("ok"))
            and bool(outcome.get("isomorphic"))
            and bool(outcome.get("deadlock_free"))
            and tables is not None
        )
        self.last_cycle = {
            k: outcome[k]
            for k in (
                "ok",
                "error",
                "message",
                "mismatch",
                "seeded",
                "seed_fallback",
                "kept_nodes",
                "probes",
                "elapsed_ms",
                "deadlock_free",
                "isomorphic",
                "n_routes",
                "trace",
                "eval_cache",
                "stack",
            )
            if k in outcome
        }
        self.last_cycle["adopted"] = adopted
        if not adopted:
            # An unverified map (faults corrupted discovery, routes not
            # deadlock-free) is as unusable as a MappingError: keep the
            # previous generation, do not let the bad map seed the next
            # cycle, and record why.
            self.maps_failed += 1
            self.status = "degraded" if self.tables is not None else "failed"
            return
        if outcome.get("seed_fallback"):
            self.seed_fallbacks += 1
        self.maps_completed += 1
        self.probes_total += int(outcome.get("probes", 0))
        self.last_result_doc = outcome["map_result"]
        self.net_epoch_at_last_map = outcome["net_epoch"]
        self.tables = tables
        self.generation += 1
        self.status = "mapped"
