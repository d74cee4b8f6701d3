"""Information-gain probe ordering for the Berkeley mapper.

The paper's Section 3.3 heuristics are *static*: the turn order
alternates outward from ±1 ("excluding turn 0, turns of +/-1 are the
best") and the entry-port window prunes turns that are guaranteed to
fail. This module makes both decisions *adaptive*, ranking work by the
discrimination it is expected to buy the model tree:

* **Turn ordering** (:class:`InfoGainPlanner`): the mapper keeps a
  cross-switch histogram of which relative turns actually hit. Each new
  :class:`~repro.core.planner.PortPlan` probes turns in descending
  posterior hit-rate (a Beta posterior whose prior encodes the paper's
  ±1-first rule, so a cold start reproduces the default order exactly).
  The final entry-port window is order-independent, but *intermediate*
  windows decide which turns get skipped as guaranteed failures —
  probing likely hits first narrows the window while unprobed turns
  remain to benefit, so on port-use-skewed fabrics the same deductions
  cost fewer probes.
* **Frontier ranking** (:meth:`InfoGainMapper._pop_frontier`): instead
  of strict FIFO, the next exploration is the shallowest frontier vertex
  with the most already-known port indices. Known indices are inherited
  from merged replicates, so such a vertex (a) explores cheaply — every
  known index is a confirmed wire that narrows its window for free — and
  (b) is the most likely to produce the host sightings that anchor
  merges (Lemma 3), killing replicate frontier entries *before* they are
  explored rather than after.

Both are deterministic: a fixed per-vertex jitter breaks ranking ties,
every other input is the probe history itself, and misses never re-rank
an already-issued plan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.mapper import BerkeleyMapper
from repro.core.mapper_protocol import register_mapper
from repro.core.model_graph import KIND_SWITCH
from repro.core.planner import PortPlan, _alternating_order

__all__ = ["InfoGainMapper", "InfoGainPlanner"]

#: Weight of a turn's 1/|t| prior against its observed hit rate.
PRIOR_WEIGHT = 2.0


class InfoGainPlanner:
    """Per-run factory for turn plans ranked by learned hit probability.

    Shared mutable state across every plan it issues: ``observe`` feeds
    the histogram, ``new_plan`` freezes the current ranking into the
    plan's turn order (a plan never re-ranks mid-flight — determinism
    depends on the order being fixed at creation).
    """

    def __init__(self) -> None:
        self._hits: Counter[int] = Counter()
        self._trials: Counter[int] = Counter()

    def observe(self, turn: int, hit: bool) -> None:
        self._trials[turn] += 1
        if hit:
            self._hits[turn] += 1

    def _score(self, turn: int) -> float:
        """Posterior mean hit rate with a ±1-first prior."""
        w = PRIOR_WEIGHT
        prior = w / abs(turn)
        return (self._hits[turn] + prior) / (self._trials[turn] + w)

    def new_plan(self, radix: int) -> PortPlan:
        # The paper's static preference is the Beta prior mean (1/|t|) and,
        # through a stable sort of the alternating order, the tie-break, so
        # a cold start is byte-identical to the default order.
        order = tuple(
            sorted(_alternating_order(radix), key=lambda t: -self._score(t))
        )
        return _ObservedPlan(radix=radix, use_window=True, order=order, planner=self)


@dataclass
class _ObservedPlan(PortPlan):
    """A ``PortPlan`` that reports outcomes back to the histogram.

    Window arithmetic is untouched — skipping stays sound ("eliminate
    probes only when we are sure they will fail"); only the order turns
    are attempted in changes.
    """

    planner: InfoGainPlanner | None = None

    def feed(self, turn: int, found_wire: bool) -> None:
        if self.planner is not None:
            self.planner.observe(turn, found_wire)
        super().feed(turn, found_wire)


@register_mapper(
    "berkeley-infogain",
    summary="Berkeley + learned turn order and discrimination-ranked frontier",
)
class InfoGainMapper(BerkeleyMapper):
    """Berkeley mapper with information-gain probe ordering.

    Same deduction engine, same soundness (any exploration interleaving
    is valid — modification 1), different spending order. Capabilities
    are inherited: seeding and profiling both still apply.
    """

    def __init__(
        self,
        service,
        *,
        search_depth: int,
        **kwargs,
    ) -> None:
        if kwargs.get("planner") is None:
            kwargs["planner"] = InfoGainPlanner()
        super().__init__(service, search_depth=search_depth, **kwargs)

    def _jitter(self, vid: int) -> int:
        """Fixed per-vertex tie-break."""
        return (vid * 2654435761) % 997

    def _pop_frontier(self) -> int:
        """Pick the frontier vertex with the best expected discrimination.

        Rank live entries by (shallowest depth, most known indices,
        seeded jitter): shallow keeps the tree small, known indices make
        the exploration cheap (pre-narrowed window) and host-dense
        (anchors merge away replicates still waiting on the frontier).
        Stale entries — pruned, already explored, merged duplicates — are
        dropped during the scan so the frontier never accumulates junk.
        """
        frontier = self._frontier
        best: int | None = None
        best_key: tuple[int, int, int, int] | None = None
        live: dict[int, None] = {}  # explorable representatives, in order
        for entry in frontier:
            v = self._find(entry)
            if v is None or v.explored or v.kind != KIND_SWITCH or v.vid in live:
                continue
            live[v.vid] = None
            key = (v.depth, -len(v.nbrs), self._jitter(v.vid), v.vid)
            if best_key is None or key < best_key:
                best, best_key = v.vid, key
        if best is None:
            # Nothing explorable left; hand back a stale entry for the
            # main loop to discard on its own validity checks.
            return frontier.popleft()
        del live[best]
        frontier.clear()
        frontier.extend(live)
        return best
