"""Master/slave mapping runs: the driver for Figures 7 and 9.

In master/slave mode one distinguished host actively maps while every other
host with a daemon passively echoes probes. Mapping time then depends on

- the probe count (algorithmic), and
- the mix of answered probes vs. timeouts — which is where Figure 9's
  speedup comes from: a host-probe to a daemon-less host costs the full
  timeout instead of a round-trip, and with few daemons the model graph also
  accumulates fewer host anchors, so merging resolves later and exploration
  sends more probes overall.

:func:`timed_run` performs one run and returns the result plus elapsed
simulated milliseconds; :func:`repeated_times` gives the min/avg/max summary
the paper's Figure 7 reports.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from repro.core.mapper import MapResult
from repro.core.mapper_protocol import create_mapper
from repro.core.remapper import map_cycle
from repro.simulator.daemons import DaemonPlacement
from repro.topology.model import Network

#: Seeded runs behind each Figure 7 min/avg/max cell (seeds 0 .. RUNS-1).
RUNS = 10
#: The probe-cost jitter of a Figure 7 run.
JITTER = 0.08

__all__ = ["TimingSummary", "repeated_times", "timed_run"]


@dataclass(frozen=True, slots=True)
class TimingSummary:
    """min / avg / max over repeated runs, in milliseconds (Figure 7 rows)."""

    min_ms: float
    avg_ms: float
    max_ms: float
    runs: int

    @classmethod
    def of(cls, times_ms: list[float]) -> TimingSummary:
        return cls(
            min_ms=min(times_ms),
            avg_ms=statistics.fmean(times_ms),
            max_ms=max(times_ms),
            runs=len(times_ms),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.min_ms:.0f} / {self.avg_ms:.0f} / {self.max_ms:.0f} ms"


def timed_run(
    net: Network,
    mapper_host: str,
    *,
    search_depth: int,
    placement: DaemonPlacement | None = None,
    jitter: float = 0.0,
    seed: int = 0,
    max_explorations: int | None = None,
) -> MapResult:
    """One master/slave mapping run; elapsed time is in ``result.stats``.

    ``seed`` seeds the probe-cost jitter stream.
    """
    result, _ = map_cycle(
        net,
        mapper_host,
        search_depth=search_depth,
        mapper=lambda svc, depth: create_mapper(
            "berkeley",
            svc,
            search_depth=depth,
            max_explorations=max_explorations,
        ),
        responders=None if placement is None else placement.responders,
        jitter=jitter,
        rng=random.Random(seed),
    )
    return result


def repeated_times(net: Network, mapper_host: str, *, search_depth: int) -> TimingSummary:
    """min/avg/max mapping time over :data:`RUNS` jittered runs (Figure 7)."""
    times = [
        timed_run(
            net, mapper_host, search_depth=search_depth, jitter=JITTER, seed=i
        ).stats.elapsed_ms
        for i in range(RUNS)
    ]
    return TimingSummary.of(times)
