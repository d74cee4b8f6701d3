"""Election-mode mapping: every host maps, a leader emerges (Figure 7).

"Another [mode] where all interfaces or hosts actively map the network and
in the process the participants elect a leader by comparing network
interface addresses carried in every message. The master/slave mode is
faster but introduces a single point of failure, whereas the election mode
is more robust ... but has a performance cost." (Section 4.2)

Protocol model
--------------
- Every daemon starts actively mapping within a small random spread.
- Every probe carries its sender's interface address. A host that receives
  a probe from a higher-address active mapper yields: it stops mapping and
  becomes a passive responder.
- While a daemon is *actively mapping* it does not answer host-probes (its
  interface is busy driving its own exploration); passive and finished
  daemons answer normally.
- The highest-address mapper never yields; the run ends when it completes.

Why this is slower than master/slave, and why the variance grows with the
network: the winner's early host-probes to still-active rivals time out
instead of answering. Every such miss is a lost *host anchor* — exactly the
resource the merging deductions feed on (Lemma 3 anchors at hosts) — so
replicates merge later and the winner explores and probes more. Which
anchors are lost depends on start-time jitter, hence the long tail the
paper reports for C+A+B election mode (981/1011/1208 master vs
1065/1298/3332 election).

Approximation (recorded in DESIGN.md): rival mappers replay quiescent probe
schedules (capped — rivals yield early) to decide *when rivals silence each
other*; the winner's mapper runs live with a :class:`_RivalSilenceLayer`
gating its host-probes, so its probe content genuinely adapts to which
hosts were silent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.mapper import MapResult
from repro.core.parallel import JITTER, RUNS, TimingSummary
from repro.core.remapper import map_cycle
from repro.simulator.collision import CircuitModel, CollisionModel
from repro.simulator.probes import ProbeKind, ProbeRecord
from repro.simulator.stack import (
    CapLayer,
    ProbeBudgetExceeded,
    ProbeContext,
    ProbeLayer,
    TraceBusLayer,
)
from repro.simulator.timing import wire_time_us
from repro.topology.model import Network

__all__ = ["ElectionOutcome", "election_runs", "election_times"]

#: Rival start times are drawn uniformly from [0, START_SPREAD_MS).
START_SPREAD_MS = 30.0
#: Probes a rival's replayed schedule runs before it yields.
RIVAL_PROBE_CAP = 600


@dataclass(slots=True)
class ElectionOutcome:
    """Result of one election-mode mapping simulation."""

    winner: str
    elapsed_ms: float
    map_result: MapResult
    yield_times_ms: dict[str, float]
    anchor_misses: int


def _rival_schedule(
    net: Network,
    host: str,
    *,
    search_depth: int,
    collision: CollisionModel,
    cap: int,
) -> list[tuple[float, str]]:
    """(relative time, delivered-to host) for a rival's host-probe hits.

    The rival's probe sequence is its quiescent schedule; only delivered
    host-probes matter to the election (they carry the address comparison).
    The schedule is collected straight off the trace bus — no trace
    retention — and the cap trips the run once the rival's budget is spent.
    """
    events: list[tuple[float, str]] = []
    clock = 0.0

    def on_record(rec: ProbeRecord) -> None:
        nonlocal clock
        clock += rec.cost_us
        if rec.kind is ProbeKind.HOST and rec.hit and rec.response is not None:
            events.append((clock, rec.response))

    try:
        map_cycle(
            net,
            host,
            search_depth=search_depth,
            layers=(CapLayer(cap), TraceBusLayer((on_record,))),
            collision=collision,
        )
    except ProbeBudgetExceeded:
        pass
    return events


class _RivalSilenceLayer(ProbeLayer):
    """Election state for the winner's live run.

    Maintains rival activity windows, the merged rival probe-delivery
    timeline, and the rule that active mappers do not answer host-probes.
    Anchors the winner's clock to the service's ``stats.elapsed_us``.
    """

    def __init__(
        self,
        *,
        winner: str,
        start_us: dict[str, float],
        rival_events: list[tuple[float, str, str]],  # (abs time, sender, target)
        rival_end_us: dict[str, float],
    ) -> None:
        self._winner = winner
        self._start = start_us
        self._events = sorted(rival_events)
        self._cursor = 0
        self._trace_end = rival_end_us
        self._yielded: dict[str, float] = {}
        self.anchor_misses = 0
        self._svc = None
        self._t_send = 0.0

    def on_attach(self, service) -> None:
        self._svc = service

    @property
    def now_us(self) -> float:
        return self._start[self._winner] + self._svc.stats.elapsed_us

    def yield_times(self) -> dict[str, float]:
        return dict(self._yielded)

    def _is_active(self, host: str, at_us: float) -> bool:
        """Is ``host`` actively mapping (and therefore silent) at ``at_us``?"""
        if host == self._winner:
            return True
        start = self._start.get(host)
        if start is None or at_us < start:
            return False
        if host in self._yielded and at_us >= self._yielded[host]:
            return False
        if at_us >= start + self._trace_end.get(host, 0.0):
            return False  # finished its own map; daemon back to passive
        return True

    def _advance_rivals(self, to_us: float) -> None:
        """Apply rival-to-rival silencing events up to ``to_us``."""
        while self._cursor < len(self._events) and self._events[self._cursor][0] <= to_us:
            t, sender, target = self._events[self._cursor]
            self._cursor += 1
            if sender == target or target == self._winner:
                continue
            if not self._is_active(sender, t):
                continue
            # An active target does not reply, but it does *hear* the probe.
            if sender > target and self._is_active(target, t):
                self._yielded[target] = t

    def before(self, ctx: ProbeContext) -> None:
        self._t_send = self.now_us
        self._advance_rivals(self._t_send)

    def gate(self, ctx: ProbeContext) -> None:
        if ctx.kind is not ProbeKind.HOST:
            return
        target = ctx.response
        assert target is not None
        arrival = self._t_send + wire_time_us(ctx.info.hops)
        if target == self._winner or not self._is_active(target, arrival):
            return
        # Busy rival: no answer — but it heard our address.
        self.anchor_misses += 1
        if self._winner > target:
            self._yielded.setdefault(target, arrival)
        ctx.hit = False


def election_runs(
    net: Network,
    seeds: Iterable[int],
    *,
    search_depth: int,
    collision: CollisionModel | None = None,
) -> Iterator[ElectionOutcome]:
    """One election run per seed, all over the same rival schedules.

    The schedules are deterministic in everything but the seed and cost a
    capped mapping run per rival, so they are computed once per call.
    """
    collision = collision or CircuitModel()
    hosts = sorted(net.hosts)
    winner = hosts[-1]
    schedules = {
        h: _rival_schedule(
            net,
            h,
            search_depth=search_depth,
            collision=collision,
            cap=RIVAL_PROBE_CAP,
        )
        for h in hosts
        if h != winner
    }
    for seed in seeds:
        rng = random.Random(seed)
        start_us = {h: rng.uniform(0.0, START_SPREAD_MS * 1000.0) for h in hosts}
        rival_events: list[tuple[float, str, str]] = []
        rival_end: dict[str, float] = {}
        for h, sched in schedules.items():
            for t_rel, target in sched:
                rival_events.append((start_us[h] + t_rel, h, target))
            rival_end[h] = sched[-1][0] if sched else 0.0

        silence = _RivalSilenceLayer(
            winner=winner,
            start_us=start_us,
            rival_events=rival_events,
            rival_end_us=rival_end,
        )
        result, _ = map_cycle(
            net,
            winner,
            search_depth=search_depth,
            layers=(silence,),
            collision=collision,
            jitter=JITTER,
            rng=rng,
        )
        elapsed_us = silence.now_us  # includes the winner's own start delay
        yield ElectionOutcome(
            winner=winner,
            elapsed_ms=elapsed_us / 1000.0,
            map_result=result,
            yield_times_ms={h: t / 1000.0 for h, t in silence.yield_times().items()},
            anchor_misses=silence.anchor_misses,
        )


def election_times(net: Network, *, search_depth: int) -> TimingSummary:
    """min/avg/max election-mode times over seeds 0 .. RUNS-1 (the Figure 7 column)."""
    outcomes = election_runs(net, range(RUNS), search_depth=search_depth)
    return TimingSummary.of([outcome.elapsed_ms for outcome in outcomes])
