#!/usr/bin/env python3
"""Mapping while applications are running: the Section 6 open problem.

"The challenge is ... to map networks concurrently with the execution of
applications." The paper's proof assumes a quiescent network; Section 7
reports only anecdotal success under load. This example quantifies the
behavior on the simulator: subcluster C carries Poisson application
cross-traffic of increasing intensity while the mapper works, with and
without a small per-probe retry budget.

What to expect (and why it is safe): probe losses only ever *omit*
information — the deduction rules fire on positive evidence, so a loss can
hide a link or host but never invent one. The map degrades from "complete
and correct" to "incomplete", and retries buy completeness back with more
messages.

Run:  python examples/mapping_under_traffic.py
"""

from repro.experiments.common import system
from repro.extensions.crosstraffic import crosstraffic_study


def main() -> None:
    fixture = system("C")
    print(f"network: {fixture.net}  mapper: {fixture.mapper_host}")
    print("traffic is Poisson host-pair messages of 4 kB\n")

    points = crosstraffic_study(
        fixture.net,
        fixture.mapper_host,
        search_depth=fixture.search_depth,
        rates=(0.0, 2.0, 10.0, 30.0, 80.0),
    )

    header = (
        f"{'rate (msg/ms)':>13}  {'retries':>7}  {'map':>9}  "
        f"{'completeness':>12}  {'probes':>6}  {'lost':>5}  {'time ms':>8}"
    )
    print(header)
    print("-" * len(header))
    for p in points:
        print(
            f"{p.rate_msgs_per_ms:13.1f}  {p.retries:7d}  "
            f"{'correct' if p.correct else 'partial':>9}  "
            f"{p.completeness:12.1%}  {p.probes:6d}  {p.probes_lost:5d}  "
            f"{p.elapsed_ms:8.0f}"
        )

    print(
        "\nNote how losses never corrupt the map (deductions are sound): "
        "heavy traffic costs links/hosts, retries win them back."
    )


if __name__ == "__main__":
    main()
