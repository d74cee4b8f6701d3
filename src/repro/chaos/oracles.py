"""The oracle suite: what "the system survived the scenario" means.

Each oracle checks one clause of the system's contract against the final
state of a chaos cell (the ground truth *as mutated by the schedule*, the
daemon's last map, and its compiled route tables):

- ``quotient_map``   — the paper's theorem, transported to the faulted
  network: the final map is isomorphic (up to per-switch port offsets) to
  the core ``N − F`` of the *effective* network — ground truth minus dead
  cables, restricted to the mapper's connected component;
- ``routes_deadlock_free`` — the compiled UP*/DOWN* tables pass the
  Dally–Seitz channel-dependency check;
- ``routes_deliver`` — every compiled route, evaluated on the effective
  network, reaches the host it claims to;
- ``remap_converges`` — remapping reaches a no-change cycle within the
  settle budget and the whole cell stays inside its probe budget;
- ``no_contradiction`` — the final cycle completed without a
  :class:`~repro.core.mapper.MappingError` (transient contradictions during
  fault ramps are reported in the detail, not failed on).

Determinism (same seed ⇒ byte-identical trace) is checked by the runner
itself — it needs two executions — and reported under the same
:class:`OracleVerdict` shape as ``deterministic``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.routing.compile_routes import RouteTable
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.incremental import UNREACHABLE_ENDPOINT, route_deliveries
from repro.simulator.faults import FaultModel
from repro.topology.analysis import core_network, effective_network
from repro.topology.isomorphism import match_networks
from repro.topology.model import Network

__all__ = [
    "CellContext",
    "ConvergenceOracle",
    "CycleOutcome",
    "DEFAULT_ORACLES",
    "DeadlockFreeOracle",
    "NoContradictionOracle",
    "Oracle",
    "OracleVerdict",
    "QuotientMapOracle",
    "RouteDeliveryOracle",
    "effective_network",
]


@dataclass(frozen=True, slots=True)
class OracleVerdict:
    """One oracle's ruling on one cell."""

    oracle: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class CycleOutcome:
    """What one map/verify/remap cycle produced (JSON-able)."""

    index: int
    scheduled: bool
    probes: int
    hosts: int
    switches: int
    wires: int
    changed: bool
    routes_recomputed: bool
    deadlock_free: bool | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "scheduled": self.scheduled,
            "probes": self.probes,
            "hosts": self.hosts,
            "switches": self.switches,
            "wires": self.wires,
            "changed": self.changed,
            "routes_recomputed": self.routes_recomputed,
            "deadlock_free": self.deadlock_free,
            "error": self.error,
        }


@dataclass
class CellContext:
    """Everything an oracle may look at after a cell finishes."""

    truth: Network
    faults: FaultModel
    mapper_host: str
    final_map: Network | None
    final_tables: dict[str, RouteTable] | None
    cycles: list[CycleOutcome] = field(default_factory=list)
    probe_budget: int = 1_000_000

    @property
    def total_probes(self) -> int:
        return sum(c.probes for c in self.cycles)


class Oracle(Protocol):
    """One checkable clause of the system contract."""

    name: str

    def check(self, ctx: CellContext) -> OracleVerdict:
        ...  # pragma: no cover - protocol


def _viable(net: Network) -> bool:
    """Does the network still satisfy the paper's standing model minimums?"""
    return net.n_switches >= 1 and net.n_hosts >= 2


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------
class QuotientMapOracle:
    """Final map ≅ core(N_effective − F), up to per-switch port offsets."""

    name = "quotient_map"

    def check(self, ctx: CellContext) -> OracleVerdict:
        eff = effective_network(ctx.truth, ctx.faults, ctx.mapper_host)
        if not _viable(eff):
            # The scenario degraded the network below the system model's
            # minimums; the theorem has nothing to say, so the oracle only
            # requires that the mapper did not invent structure.
            mapped_hosts = ctx.final_map.n_hosts if ctx.final_map else 0
            ok = mapped_hosts <= eff.n_hosts
            return OracleVerdict(
                self.name,
                ok,
                f"effective network degenerate ({eff.n_hosts} hosts, "
                f"{eff.n_switches} switches); map has {mapped_hosts} hosts",
            )
        if ctx.final_map is None:
            return OracleVerdict(self.name, False, "no map was produced")
        report = match_networks(ctx.final_map, core_network(eff))
        if report:
            return OracleVerdict(
                self.name,
                True,
                f"isomorphic to effective core ({eff.n_hosts} hosts, "
                f"{eff.n_switches} switches)",
            )
        return OracleVerdict(self.name, False, report.reason)


class DeadlockFreeOracle:
    """Compiled route tables pass the Dally–Seitz acyclicity check."""

    name = "routes_deadlock_free"

    def check(self, ctx: CellContext) -> OracleVerdict:
        if ctx.final_tables is None:
            return OracleVerdict(self.name, False, "no route tables compiled")
        if routes_deadlock_free(ctx.final_tables):
            n = sum(len(t) for t in ctx.final_tables.values())
            return OracleVerdict(self.name, True, f"{n} routes acyclic")
        return OracleVerdict(self.name, False, "channel dependency cycle found")


class RouteDeliveryOracle:
    """Every compiled route delivers on the effective network."""

    name = "routes_deliver"

    def check(self, ctx: CellContext) -> OracleVerdict:
        if ctx.final_tables is None:
            return OracleVerdict(self.name, False, "no route tables compiled")
        eff = effective_network(ctx.truth, ctx.faults, ctx.mapper_host)
        total = 0
        bad: list[str] = []
        for src, dst, failure in route_deliveries(ctx.final_tables, eff):
            total += 1
            if failure == UNREACHABLE_ENDPOINT:
                bad.append(f"{src}->{dst} ({failure})")
            elif failure is not None:
                bad.append(f"{src}->{dst}")
        if bad:
            return OracleVerdict(
                self.name,
                False,
                f"{len(bad)}/{total} routes fail: {', '.join(sorted(bad)[:5])}",
            )
        return OracleVerdict(self.name, True, f"{total}/{total} routes deliver")


class ConvergenceOracle:
    """Remapping settles (a no-change cycle) inside the probe budget."""

    name = "remap_converges"

    def check(self, ctx: CellContext) -> OracleVerdict:
        if not ctx.cycles:
            return OracleVerdict(self.name, False, "no cycles ran")
        last = ctx.cycles[-1]
        if last.error is not None:
            return OracleVerdict(
                self.name, False, f"final cycle errored: {last.error}"
            )
        if last.changed:
            return OracleVerdict(
                self.name,
                False,
                f"map still changing after {len(ctx.cycles)} cycles",
            )
        if ctx.total_probes > ctx.probe_budget:
            return OracleVerdict(
                self.name,
                False,
                f"{ctx.total_probes} probes exceed budget {ctx.probe_budget}",
            )
        return OracleVerdict(
            self.name,
            True,
            f"converged in {len(ctx.cycles)} cycles, "
            f"{ctx.total_probes} probes",
        )


class NoContradictionOracle:
    """The final cycle mapped without a deduction contradiction."""

    name = "no_contradiction"

    def check(self, ctx: CellContext) -> OracleVerdict:
        if not ctx.cycles:
            return OracleVerdict(self.name, False, "no cycles ran")
        transient = sum(1 for c in ctx.cycles[:-1] if c.error is not None)
        last = ctx.cycles[-1]
        if last.error is not None:
            return OracleVerdict(self.name, False, last.error)
        detail = (
            f"{transient} transient contradiction(s) during fault ramp"
            if transient
            else "clean"
        )
        return OracleVerdict(self.name, True, detail)


#: The suite a campaign runs by default (determinism is runner-side).
DEFAULT_ORACLES: tuple[Oracle, ...] = (
    QuotientMapOracle(),
    DeadlockFreeOracle(),
    RouteDeliveryOracle(),
    ConvergenceOracle(),
    NoContradictionOracle(),
)
