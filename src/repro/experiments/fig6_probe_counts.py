"""Figure 6 — host and switch probe message hit ratios.

"Each row shows the number of host and switch probes, the percentage that
end at a host or switch, respectively. ... the first row shows that the
algorithm maps the C subcluster with 450 total messages of which 264
produced responses but 186 produced none. The message counts are
algorithmic properties."

Absolute counts differ between implementations (probe-order heuristics and
pair ordering are implementation choices the paper only sketches); the
properties this experiment checks against the paper are the *shape*:
super-linear growth of probe counts with system size, host-hit ratio
degrading faster than switch-hit ratio as subclusters are added, and the
switch-probe count exceeding the host-probe count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.remapper import map_cycle
from repro.experiments.common import PAPER, SYSTEMS, system
from repro.experiments.tables import print_table
from repro.simulator.stack import TraceBusLayer
from repro.topology.isomorphism import match_networks

__all__ = ["ProbeCountRow", "run", "main"]


@dataclass(frozen=True, slots=True)
class ProbeCountRow:
    system: str
    host_probes: int
    host_hits: int
    host_ratio: float
    switch_probes: int
    switch_hits: int
    switch_ratio: float
    map_correct: bool
    paper: tuple[int, int, int, int, int, int]


def run() -> list[ProbeCountRow]:
    rows = []
    for name in SYSTEMS:
        fixture = system(name)
        result, _ = map_cycle(
            fixture.net, fixture.mapper_host, search_depth=fixture.search_depth
        )
        s = result.stats
        rows.append(
            ProbeCountRow(
                system=name,
                host_probes=s.host_probes,
                host_hits=s.host_hits,
                host_ratio=s.host_hit_ratio,
                switch_probes=s.switch_probes,
                switch_hits=s.switch_hits,
                switch_ratio=s.switch_hit_ratio,
                map_correct=bool(match_networks(result.network, fixture.core)),
                paper=PAPER.fig6[name],
            )
        )
    return rows


def probe_length_histogram() -> str:
    """Per-probe-length hit ratios for subcluster C (supporting analysis).

    Explains the Figure 6 ratios: deep probes are replicate-exploration
    tails and hit less, and every miss costs the full timeout.
    """
    from repro.core.instrumentation import TraceRecorder, analyze_records

    fixture = system("C")
    recorder = TraceRecorder()
    map_cycle(
        fixture.net,
        fixture.mapper_host,
        search_depth=fixture.search_depth,
        layers=(TraceBusLayer((recorder,)),),
    )
    analysis = analyze_records(recorder.records)
    return (
        analysis.histogram()
        + f"\ntimeout share of mapping time: {analysis.timeout_share:.0%}"
    )


def main() -> None:
    rows = run()
    print_table(
        [
            "System",
            "host",
            "hits",
            "ratio",
            "switch",
            "hits",
            "ratio",
            "correct",
            "paper (host/hits/% | sw/hits/%)",
        ],
        [
            (
                r.system,
                r.host_probes,
                r.host_hits,
                f"{r.host_ratio:.0%}",
                r.switch_probes,
                r.switch_hits,
                f"{r.switch_ratio:.0%}",
                "yes" if r.map_correct else "NO",
                "%d/%d/%d%% | %d/%d/%d%%" % r.paper,
            )
            for r in rows
        ],
        title="Figure 6: host and switch probe message hit ratios",
    )
    print("Probe-length breakdown for system C:")
    print(probe_length_histogram())


if __name__ == "__main__":
    main()
