"""Ablation studies for the design choices the paper calls out.

1. **Probe-order heuristics** (Section 3.3 item 3): the paper suspects "the
   total number of messages can be reduced by factors of 2 or more based
   upon our experience with cleverly choosing the sequence that switch
   ports are probed". Compare the heuristic planner (alternating order +
   entry-window pruning) against the naive fixed sweep.
2. **Collision model** (Section 2.3.1): circuit vs cut-through routing —
   cut-through lets some self-reusing probes through ("some probes may
   succeed where previously they failed due to self-deadlock"), changing
   probe success rates and the model graph size.
3. **Probe-pair order**: host-probe-first vs switch-probe-first.
4. **Coupon-collecting seeding** (Section 6): random maximal-depth probes
   before BFS, vs the plain mapper.
5. **Self-identifying switches** (Section 6): the hardware-assisted lower
   bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapper_protocol import create_mapper
from repro.core.planner import ProbePlanner
from repro.core.remapper import map_cycle
from repro.experiments.common import system
from repro.experiments.tables import print_table
from repro.simulator.collision import CircuitModel, CutThroughModel
from repro.simulator.stack import build_service_stack
from repro.topology.isomorphism import match_networks

__all__ = ["AblationRow", "run", "main"]


@dataclass(frozen=True, slots=True)
class AblationRow:
    variant: str
    probes: int
    elapsed_ms: float
    explorations: int
    peak_model_nodes: int
    correct: bool


def run(name: str = "C+A+B") -> list[AblationRow]:
    fixture = system(name)
    rows: list[AblationRow] = []

    def record(variant: str, result) -> None:
        net = result.network
        rows.append(
            AblationRow(
                variant=variant,
                probes=result.stats.total_probes,
                elapsed_ms=result.stats.elapsed_ms,
                explorations=getattr(result, "explorations", 0),
                peak_model_nodes=getattr(result, "peak_model_nodes", 0),
                correct=bool(match_networks(net, fixture.core)),
            )
        )

    # 1. planner heuristics on/off
    for heuristic, label in ((True, "planner: heuristic"), (False, "planner: naive")):
        svc = build_service_stack(fixture.net, fixture.mapper_host)
        record(
            label,
            create_mapper(
                "berkeley",
                svc,
                search_depth=fixture.search_depth,
                planner=ProbePlanner(heuristic=heuristic),
            ).map(),
        )

    # 2. collision models
    for collision, label in (
        (CircuitModel(), "collision: circuit"),
        (CutThroughModel(slack_hops=1), "collision: cut-through slack=1"),
        (CutThroughModel(slack_hops=3), "collision: cut-through slack=3"),
    ):
        result, _ = map_cycle(
            fixture.net,
            fixture.mapper_host,
            search_depth=fixture.search_depth,
            collision=collision,
        )
        record(label, result)

    # 3. probe-pair order
    for host_first, label in ((True, "pair order: host first"), (False, "pair order: switch first")):
        svc = build_service_stack(fixture.net, fixture.mapper_host)
        record(
            label,
            create_mapper(
                "berkeley", svc, search_depth=fixture.search_depth,
                host_first=host_first,
            ).map(),
        )

    # 4. coupon-collecting seeding (with the Section 6 firmware change:
    # hosts answer probes that hit them mid-string)
    for n in (0, 30, 100):
        svc = build_service_stack(fixture.net, fixture.mapper_host)
        mapper = create_mapper(
            "coupon",
            svc,
            search_depth=fixture.search_depth,
            coupon_probes=n,
            coupon_seed=7,
        )
        record(f"coupon seeding: {n} probes", mapper.map())

    # 5. self-identifying switches (lower bound)
    result, _ = map_cycle(
        fixture.net,
        fixture.mapper_host,
        mapper="selfid",
        search_depth=fixture.search_depth,
    )
    record("self-identifying switches", result)
    return rows


def main() -> None:
    rows = run()
    print_table(
        ["variant", "probes", "time (ms)", "explorations", "peak nodes", "correct"],
        [
            (
                r.variant,
                r.probes,
                f"{r.elapsed_ms:.0f}",
                r.explorations or "-",
                r.peak_model_nodes or "-",
                "yes" if r.correct else "NO",
            )
            for r in rows
        ],
        title="Ablations on C+A+B",
    )


if __name__ == "__main__":
    main()
