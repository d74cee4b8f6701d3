"""Figure 7 — mapping times for three systems and two operational modes.

"Note the small variations in mapping times for C and C+A regardless of the
mode of operation, and the increased variation for C+A+B, particularly with
the election."

Times come from the calibrated timing model (absolute 1997 wall-clock is
not reproducible; DESIGN.md records the calibration); the reproduced claims
are the relative ones: roughly linear growth with system size, election
slower than master/slave, and the election variance growing with the
system — including the long tail on C+A+B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.election import election_times
from repro.core.parallel import TimingSummary, repeated_times
from repro.experiments.common import PAPER, SYSTEMS, system
from repro.experiments.tables import print_table

__all__ = ["TimesRow", "run", "main"]


@dataclass(frozen=True, slots=True)
class TimesRow:
    system: str
    master: TimingSummary
    election: TimingSummary
    paper_master: tuple[int, int, int]
    paper_election: tuple[int, int, int]


def run() -> list[TimesRow]:
    rows = []
    for name in SYSTEMS:
        fixture = system(name)
        master = repeated_times(
            fixture.net,
            fixture.mapper_host,
            search_depth=fixture.search_depth,
        )
        election = election_times(fixture.net, search_depth=fixture.search_depth)
        rows.append(
            TimesRow(
                system=name,
                master=master,
                election=election,
                paper_master=PAPER.fig7_master[name],
                paper_election=PAPER.fig7_election[name],
            )
        )
    return rows


def main() -> None:
    rows = run()
    print_table(
        [
            "System",
            "master min/avg/max (ms)",
            "paper",
            "election min/avg/max (ms)",
            "paper",
        ],
        [
            (
                r.system,
                str(r.master),
                "%d / %d / %d" % r.paper_master,
                str(r.election),
                "%d / %d / %d" % r.paper_election,
            )
            for r in rows
        ],
        title="Figure 7: mapping times, master/slave vs election",
    )


if __name__ == "__main__":
    main()
