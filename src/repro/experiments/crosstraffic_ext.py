"""Section 6 extension — mapping accuracy under application cross-traffic.

The paper's first open problem, quantified on the simulator: sweep the
aggregate traffic rate and the retry budget, report map correctness,
completeness and cost. The observed regime matches the paper's anecdote
("oftentimes correctly map the network even in the face of heavy
application cross-traffic"): losses only ever make the map *incomplete*
(deductions are sound), and modest retry budgets restore correctness well
into heavy-traffic territory.
"""

from __future__ import annotations

from repro.experiments.common import system
from repro.experiments.tables import print_table
from repro.extensions.crosstraffic import TrafficPoint, crosstraffic_study

__all__ = ["run", "main"]


#: Aggregate traffic rates (messages/ms) the experiment sweeps.
RATES = (0.0, 1.0, 5.0, 20.0, 50.0, 100.0)


def run(name: str = "C") -> list[TrafficPoint]:
    fixture = system(name)
    return crosstraffic_study(
        fixture.net, fixture.mapper_host, search_depth=fixture.search_depth, rates=RATES
    )


def main() -> None:
    points = run()
    print_table(
        [
            "traffic (msgs/ms)",
            "retries",
            "correct",
            "completeness",
            "probes",
            "lost to traffic",
            "time (ms)",
        ],
        [
            (
                f"{p.rate_msgs_per_ms:.1f}",
                p.retries,
                "yes" if p.correct else "NO",
                f"{p.completeness:.1%}",
                p.probes,
                p.probes_lost,
                f"{p.elapsed_ms:.0f}",
            )
            for p in points
        ],
        title="Extension: mapping under application cross-traffic (system C)",
    )


if __name__ == "__main__":
    main()
