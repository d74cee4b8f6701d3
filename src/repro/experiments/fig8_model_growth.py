"""Figure 8 — model-graph growth during a C+A+B mapping run.

"The top line is the number of edges. The middle is the number of nodes in
the model graph, and the bottom is the number of items on the frontier
list. ... At the maximum, the algorithm's model graph has ~750 model graph
nodes that eventually are merged and pruned into the 140 actual nodes."

The experiment records (nodes, edges, frontier) after every switch
exploration and reports the headline quantities: the peak model size, the
final plummet at the prune, and the exploration count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapper import GrowthSample, MapResult
from repro.core.mapper_protocol import create_mapper
from repro.experiments.common import PAPER, system
from repro.experiments.tables import print_table
from repro.simulator.stack import build_service_stack

__all__ = ["GrowthExperiment", "run", "main", "render_series"]


@dataclass(slots=True)
class GrowthExperiment:
    system: str
    result: MapResult
    samples: list[GrowthSample]
    peak_nodes: int
    peak_edges: int
    final_nodes: int
    final_edges: int
    actual_nodes: int


def run(name: str = "C+A+B") -> GrowthExperiment:
    fixture = system(name)
    svc = build_service_stack(fixture.net, fixture.mapper_host)
    result = create_mapper(
        "berkeley",
        svc,
        search_depth=fixture.search_depth,
        record_growth=True,
    ).map()
    samples = result.growth
    return GrowthExperiment(
        system=name,
        result=result,
        samples=samples,
        peak_nodes=max(s.n_nodes for s in samples),
        peak_edges=max(s.n_edges for s in samples),
        final_nodes=samples[-1].n_nodes,
        final_edges=samples[-1].n_edges,
        actual_nodes=fixture.core.n_hosts + fixture.core.n_switches,
    )


def render_series(samples: list[GrowthSample], *, every: int = 10) -> str:
    """A decimated text rendering of the three Figure 8 series."""
    lines = ["exploration  nodes  edges  frontier"]
    for i, s in enumerate(samples):
        if i % every == 0 or i == len(samples) - 1:
            lines.append(
                f"{s.exploration:11d}  {s.n_nodes:5d}  {s.n_edges:5d}  "
                f"{s.n_frontier:8d}"
            )
    return "\n".join(lines)


def main() -> None:
    exp = run()
    print("Figure 8: model graph growth (C+A+B)")
    print(render_series(exp.samples, every=max(1, len(exp.samples) // 25)))
    print()
    print_table(
        ["quantity", "ours", "paper"],
        [
            ("explorations", exp.result.explorations, "~250"),
            ("peak model nodes", exp.peak_nodes, PAPER.fig8_peak_model_nodes),
            ("final nodes (= actual)", exp.final_nodes, PAPER.fig8_actual_nodes),
            ("actual core nodes", exp.actual_nodes, PAPER.fig8_actual_nodes),
            ("final frontier", exp.samples[-1].n_frontier, 0),
        ],
        title="Figure 8 headline quantities",
    )


if __name__ == "__main__":
    main()
