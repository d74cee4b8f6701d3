"""Figure 10 — Myricom Algorithm performance summary, vs. the Berkeley one.

"The columns account for the following types of probe messages: loop for
loopback cables, host for hosts attached to switch ports, sw(itch) for
switches attached to switch ports, and comp(are) for disambiguating new
switches from old ones."

Section 5.4's headline: "The Myricom Algorithm sends 3.2, 3.6, and 5.4
times the number of probe messages ... [and] takes approximately 5.5, 3.9,
and 3.9 times longer to map the C, C+A, and C+A+B configurations,
respectively, as compared to the Berkeley Algorithm." The reproduced claim
is that eager O(N²) comparison probing costs integer factors over the lazy
deductive scheme, growing with system size.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import cast

from repro.baselines.myricom import MyricomMapper, ProbeBreakdown
from repro.core.mapper_protocol import create_mapper
from repro.core.remapper import map_cycle
from repro.experiments.common import PAPER, SYSTEMS, system
from repro.experiments.tables import print_table
from repro.simulator.stack import build_service_stack
from repro.topology.isomorphism import match_networks

__all__ = ["MyricomRow", "run", "main"]


@dataclass(frozen=True, slots=True)
class MyricomRow:
    system: str
    breakdown: ProbeBreakdown
    myricom_time_ms: float
    myricom_correct: bool
    berkeley_probes: int
    berkeley_time_ms: float
    paper: tuple[int, int, int, int, int, int]
    paper_msg_ratio: float
    paper_time_ratio: float

    @property
    def msg_ratio(self) -> float:
        return self.breakdown.total / self.berkeley_probes

    @property
    def time_ratio(self) -> float:
        return self.myricom_time_ms / self.berkeley_time_ms


def run(systems=SYSTEMS) -> list[MyricomRow]:
    rows = []
    for name in systems:
        fixture = system(name)
        berkeley, _ = map_cycle(
            fixture.net, fixture.mapper_host, search_depth=fixture.search_depth
        )
        svc_m = build_service_stack(fixture.net, fixture.mapper_host)
        # The per-category probe breakdown is the Myricom mapper's own,
        # read off it after map(), so keep its concrete type here.
        mapper = cast(
            MyricomMapper,
            create_mapper("myricom", svc_m, search_depth=fixture.search_depth),
        )
        myricom = mapper.map()
        rows.append(
            MyricomRow(
                system=name,
                breakdown=mapper.breakdown,
                myricom_time_ms=myricom.elapsed_ms,
                myricom_correct=bool(match_networks(myricom.network, fixture.core)),
                berkeley_probes=berkeley.stats.total_probes,
                berkeley_time_ms=berkeley.elapsed_ms,
                paper=PAPER.fig10[name],
                paper_msg_ratio=PAPER.fig10_msg_ratio[name],
                paper_time_ratio=PAPER.fig10_time_ratio[name],
            )
        )
    return rows


def main() -> None:
    rows = run()
    print_table(
        ["System", "loop", "host", "sw", "comp", "total", "time(ms)", "correct",
         "paper (loop/host/sw/comp/total/ms)"],
        [
            (
                r.system,
                r.breakdown.loop,
                r.breakdown.host,
                r.breakdown.switch,
                r.breakdown.compare,
                r.breakdown.total,
                f"{r.myricom_time_ms:.0f}",
                "yes" if r.myricom_correct else "NO",
                "%d/%d/%d/%d/%d/%d" % r.paper,
            )
            for r in rows
        ],
        title="Figure 10: Myricom Algorithm performance summary",
    )
    print_table(
        ["System", "msgs Myricom/Berkeley", "paper", "time Myricom/Berkeley", "paper"],
        [
            (
                r.system,
                f"{r.msg_ratio:.1f}x",
                f"{r.paper_msg_ratio:.1f}x",
                f"{r.time_ratio:.1f}x",
                f"{r.paper_time_ratio:.1f}x",
            )
            for r in rows
        ],
        title="Section 5.4: Myricom vs Berkeley ratios",
    )


if __name__ == "__main__":
    main()
