"""Section 6 extension — parallel mapping with partial-map exchange.

The paper conjectures that "every network host could map local regions, and
upon discovering another host exchange their partial maps", with the open
question of merging local views consistently. This experiment runs the
implemented answer on the full NOW system and reports the trade:

- one deep mapper: the Figure 7 baseline;
- k local mappers at bounded depth, merged by shared-host anchoring:
  the *parallel wall clock* is the slowest local run (merging sends no
  probes), at the price of more total probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.parallel import timed_run
from repro.experiments.common import system
from repro.experiments.tables import print_table
from repro.extensions.parallel_maps import (
    ParallelMappingReport,
    parallel_mapping_study,
)
from repro.topology.isomorphism import match_networks

__all__ = ["ParallelRow", "run", "main"]

#: Every STRIDE-th host (by name) maps its own region, LOCAL_DEPTH deep,
#: under an exploration bound of MAX_EXPLORATIONS.
STRIDE = 5
LOCAL_DEPTH = 7
MAX_EXPLORATIONS = 120


@dataclass(frozen=True, slots=True)
class ParallelRow:
    label: str
    mappers: int
    probes: int
    wall_ms: float
    complete: bool


def run(name: str = "C+A+B") -> list[ParallelRow]:
    fixture = system(name)
    rows: list[ParallelRow] = []

    single = timed_run(
        fixture.net, fixture.mapper_host, search_depth=fixture.search_depth
    )
    rows.append(
        ParallelRow(
            label="single deep mapper",
            mappers=1,
            probes=single.stats.total_probes,
            wall_ms=single.stats.elapsed_ms,
            complete=bool(match_networks(single.network, fixture.core)),
        )
    )

    hosts = sorted(fixture.net.hosts)
    mappers = hosts[::STRIDE]
    if fixture.mapper_host not in mappers:
        mappers.append(fixture.mapper_host)
    report: ParallelMappingReport = parallel_mapping_study(
        fixture.net,
        mappers,
        local_depth=LOCAL_DEPTH,
        max_explorations=MAX_EXPLORATIONS,
    )
    complete = len(report.islands) == 1 and bool(
        match_networks(report.islands[0], fixture.core)
    )
    rows.append(
        ParallelRow(
            label=f"{report.n_mappers} local mappers (depth {LOCAL_DEPTH})",
            mappers=report.n_mappers,
            probes=report.total_probes,
            wall_ms=report.max_local_ms,
            complete=complete,
        )
    )
    return rows


def main() -> None:
    rows = run()
    print_table(
        ["strategy", "mappers", "total probes", "wall clock (ms)", "complete map"],
        [
            (r.label, r.mappers, r.probes, f"{r.wall_ms:.0f}",
             "yes" if r.complete else "partial")
            for r in rows
        ],
        title="Extension: parallel local mapping vs one deep mapper (C+A+B)",
    )
    print(
        "Merging partial views costs zero probes; the parallel wall clock\n"
        "is the slowest local region, bought with redundant local probing."
    )


if __name__ == "__main__":
    main()
