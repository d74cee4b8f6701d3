"""Figure 9 — map time vs. number of hosts running a mapper daemon.

"The top line shows performance as additional hosts are added one at a
time, filling out each subcluster completely before moving onto the next
one. The bottom line shows performance as additional mappers are added
incrementally but on randomly chosen hosts. ... the factor of 8 speedup in
mapping time from 1 host actively mapping the network as additional hosts
(running passive mappers) are added."

Mechanism reproduced here: a host-probe to a daemon-less host costs the
timeout instead of a round-trip, and fewer answering hosts means fewer
merge anchors, so exploration itself inflates. Sequential fill shows the
paper's step discontinuities at subcluster boundaries ("the step-wise
discontinuities occur as the first mapper is run on [a] subcluster");
random placement converges much sooner ("after 15 randomly-placed mappers
... within a factor of 2 of its minimum").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.parallel import timed_run
from repro.experiments.common import system
from repro.experiments.tables import print_table
from repro.simulator.daemons import DaemonPlacement

__all__ = ["ResponderPoint", "run", "main"]

#: The mapper's exploration bound in every Figure 9 run (see :func:`run`).
MAX_EXPLORATIONS = 1200


@dataclass(frozen=True, slots=True)
class ResponderPoint:
    n_responders: int
    placement: str  # "sequential" | "random"
    elapsed_ms: float
    hosts_mapped: int
    probes: int


def run(
    name: str = "C+A+B",
    *,
    counts: tuple[int, ...] = (1, 2, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100),
) -> list[ResponderPoint]:
    """:data:`MAX_EXPLORATIONS` is the mapper's resource bound: with few
    responders the unmerged walk tree is exponential (2^O(D+Q)), and the
    real user-level mapper runs under memory/time bounds. ~1200 is roughly
    6x the full system's anchored exploration count (Figure 8)."""
    fixture = system(name)
    points: list[ResponderPoint] = []
    for count in counts:
        for kind in ("sequential", "random"):
            if kind == "sequential":
                placement = DaemonPlacement.sequential_fill(fixture.net, count)
            else:
                placement = DaemonPlacement.random_fill(fixture.net, count)
            result = timed_run(
                fixture.net,
                fixture.mapper_host,
                search_depth=fixture.search_depth,
                placement=placement,
                max_explorations=MAX_EXPLORATIONS,
            )
            points.append(
                ResponderPoint(
                    n_responders=count,
                    placement=kind,
                    elapsed_ms=result.stats.elapsed_ms,
                    hosts_mapped=result.network.n_hosts,
                    probes=result.stats.total_probes,
                )
            )
    return points


def main() -> None:
    points = run()
    seq = {p.n_responders: p for p in points if p.placement == "sequential"}
    rnd = {p.n_responders: p for p in points if p.placement == "random"}
    counts = sorted(seq)
    print_table(
        [
            "#daemons",
            "sequential ms",
            "(hosts, probes)",
            "random ms",
            "(hosts, probes)",
        ],
        [
            (
                c,
                f"{seq[c].elapsed_ms:.0f}",
                f"({seq[c].hosts_mapped}, {seq[c].probes})",
                f"{rnd[c].elapsed_ms:.0f}",
                f"({rnd[c].hosts_mapped}, {rnd[c].probes})",
            )
            for c in counts
        ],
        title="Figure 9: map time vs number of hosts running a mapper",
    )
    slowest = seq[counts[0]].elapsed_ms
    fastest = min(p.elapsed_ms for p in points)
    print(f"speedup from 1 to {counts[-1]} responders: "
          f"{slowest / fastest:.1f}x (paper: ~8x)")


if __name__ == "__main__":
    main()
