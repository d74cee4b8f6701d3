"""Probe-trace analysis: the quantities behind Figures 6 and 7.

"Probes that do not generate responses are more expensive than others
because the message time-out period is longer than the time of an average
round-trip" — so what determines mapping time is the probe mix. This module
turns a kept probe trace into the distributions that explain it:

- hits and misses by probe-string length (deep probes miss more: more ways
  to fall off the network, and replicate exploration grows with depth);
- cost decomposition into answered time vs timeout time.

It also formats the evaluation-cache counters
(:class:`~repro.simulator.path_eval.EvalCacheStats`) for the ``san-map map
--stats`` flag and the experiment summaries — one shared renderer so every
surface prints the same line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.simulator.path_eval import EvalCacheStats

__all__ = [
    "PhaseProfile",
    "PhaseProfiler",
    "TraceAnalysis",
    "TraceRecorder",
    "analyze_records",
    "cache_summary",
    "chaos_summary",
]


@dataclass(frozen=True, slots=True)
class PhaseProfile:
    """Snapshot of per-phase wall-clock accounting for one mapping run.

    ``phases`` maps a phase name to ``(calls, wall_seconds)``. Phases nest:
    ``probe`` time is part of ``explore`` time and ``merge`` time is part of
    ``deduce`` time, so the rows are a decomposition for reading, not a
    partition for summing — ``total_s`` adds only the top-level phases.
    """

    phases: dict[str, tuple[int, float]]

    #: Phases whose wall-clock is already contained in another phase's row.
    NESTED = {"probe": "explore", "merge": "deduce"}

    @property
    def total_s(self) -> float:
        return sum(
            wall for name, (_, wall) in self.phases.items()
            if name not in self.NESTED
        )

    def render(self) -> str:
        """Plain-text table for ``san-map map --profile``."""
        lines = ["phase      calls    wall ms"]
        for name, (calls, wall) in self.phases.items():
            nested = "  (in %s)" % self.NESTED[name] if name in self.NESTED else ""
            lines.append(f"{name:<9} {calls:6d}  {wall * 1000:9.2f}{nested}")
        lines.append(f"{'total':<9} {'':6}  {self.total_s * 1000:9.2f}")
        return "\n".join(lines)


class PhaseProfiler:
    """Opt-in per-phase wall-clock accumulator for the mapper.

    The mapper's phases (explore / probe / deduce / merge / prune / build)
    call :meth:`add` with durations measured against ``clock``. The clock
    is *injected*: ``repro.core`` never reads the wall clock on its own
    (SAN001) — profiling is observational, off by default, and feeds
    nothing back into mapping decisions, so results stay byte-identical
    with and without a profiler attached. Tests inject deterministic fake
    clocks; the default binds ``time.perf_counter`` for CLI/benchmark use.
    """

    __slots__ = ("clock", "_acc")

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        if clock is None:
            import time

            # Bound once, called only from opted-in profiling sites.
            clock = time.perf_counter
        self.clock = clock
        self._acc: dict[str, list] = {}

    def add(self, phase: str, seconds: float) -> None:
        slot = self._acc.get(phase)
        if slot is None:
            self._acc[phase] = slot = [0, 0.0]
        slot[0] += 1
        slot[1] += seconds

    def snapshot(self) -> PhaseProfile:
        return PhaseProfile(
            phases={name: (c, w) for name, (c, w) in self._acc.items()}
        )


def cache_summary(stats: EvalCacheStats) -> str:
    """One-line rendering of the probe-evaluation cache counters."""
    return (
        f"eval cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.1%} hit rate), {stats.nodes} trie nodes, "
        f"{stats.invalidations} invalidations"
    )


def chaos_summary(summary: dict, *, name: str = "campaign") -> str:
    """Multi-line rendering of a chaos campaign's aggregate counters.

    Takes the plain summary dict produced by
    :meth:`repro.chaos.runner.CampaignReport.summary` (not the report object:
    ``core`` must stay importable without :mod:`repro.chaos`).
    """
    lines = [
        f"chaos campaign {name}: {summary['passed']}/{summary['cells']} "
        f"cells passed, {summary['cycles']} cycles, "
        f"{summary['probes']} probes",
    ]
    for oracle, count in sorted(summary.get("oracle_failures", {}).items()):
        lines.append(f"  failing oracle {oracle}: {count} cell(s)")
    return "\n".join(lines)


@dataclass(slots=True)
class TraceAnalysis:
    """Aggregates over a probe trace."""

    by_length: dict[int, tuple[int, int]]  # length -> (probes, hits)
    answered_us: float
    timeout_us: float

    @property
    def timeout_share(self) -> float:
        """Fraction of total time spent waiting out unanswered probes."""
        denom = self.answered_us + self.timeout_us
        return self.timeout_us / denom if denom else 0.0

    def histogram(self) -> str:
        """Plain-text per-length histogram (probes, hits, ratio)."""
        lines = ["len  probes  hits  ratio"]
        for length in sorted(self.by_length):
            probes, hits = self.by_length[length]
            lines.append(
                f"{length:3d}  {probes:6d}  {hits:4d}  "
                f"{hits / probes if probes else 0.0:5.0%}"
            )
        return "\n".join(lines)


class TraceRecorder:
    """Trace-bus subscriber that accumulates every published probe record.

    Attach to a :class:`~repro.simulator.stack.TraceBusLayer` to keep a
    run's probe trace (the service itself retains only counters); the
    recorder then feeds :func:`analyze_records`.
    """

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list = []

    def __call__(self, record) -> None:
        self.records.append(record)


def analyze_records(records) -> TraceAnalysis:
    """Aggregate a sequence of probe records (a trace-bus feed)."""
    by_length: dict[int, list[int]] = {}
    answered = 0.0
    timeout = 0.0
    for rec in records:
        bucket = by_length.setdefault(len(rec.turns), [0, 0])
        bucket[0] += 1
        if rec.hit:
            bucket[1] += 1
            answered += rec.cost_us
        else:
            timeout += rec.cost_us
    return TraceAnalysis(
        by_length={k: (v[0], v[1]) for k, v in by_length.items()},
        answered_us=answered,
        timeout_us=timeout,
    )
