"""Directed-channel occupancy for concurrent worms.

Under quiescence a probe can only collide with itself; with several mappers
active (election mode) or application cross-traffic present, worms collide
with *each other*. We model each wire as two directed channels. A worm
occupies every channel of its path for an interval derived from the timing
model (cut-through pipelining: the occupancy of hop ``i`` starts when the
head reaches it and ends when the tail clears it). A worm finding any
channel of its path busy blocks and — like the hardware — is destroyed by
the forward reset after the ROM timeout; the observable effect at its
sender is an unanswered probe.

This is a message-granularity approximation of flit-level wormhole traffic:
it preserves what the experiments measure (which probes are lost to
contention, and the time costs), at a small fraction of the cost of a
flit simulator. DESIGN.md records the substitution.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from repro.simulator.path_eval import Traversal
from repro.simulator.timing import BLOCKED_PORT_TIMEOUT_US, PROBE_BYTES, SWITCH_LATENCY_US
from repro.simulator.timing import LINK_BANDWIDTH_BYTES_PER_US

__all__ = ["ChannelOccupancy", "WormPlacement"]


@dataclass(frozen=True, slots=True)
class WormPlacement:
    """Outcome of trying to place a worm on the fabric at a given time."""

    ok: bool
    start_us: float
    finish_us: float
    blocked_channel: Traversal | None = None


class ChannelOccupancy:
    """Per-channel sorted busy intervals with overlap queries."""

    #: Relative-plan memo bound; cleared wholesale on overflow. Probe paths
    #: repeat heavily (retries, X-sweeps, cross-traffic pairs), so the memo
    #: hit rate is high; the bound keeps adversarial traffic from growing it.
    _PLAN_MEMO_MAX = 4096

    def __init__(self) -> None:
        self._busy: dict[Traversal, list[tuple[float, float]]] = {}
        self._plan_memo: dict[tuple, list[tuple[Traversal, float, float]]] = {}

    def _relative_plan(
        self, traversals: Sequence[Traversal], message_bytes: int | None
    ) -> list[tuple[Traversal, float, float]]:
        """Per-channel busy offsets for a worm launched at time zero.

        Offsets depend only on the traversal sequence and the message size,
        so they are memoized across placements of the same path.
        """
        key = (message_bytes or 0, tuple(traversals))
        plan = self._plan_memo.get(key)
        if plan is None:
            tx = (message_bytes or PROBE_BYTES) / LINK_BANDWIDTH_BYTES_PER_US
            plan = []
            for i, tr in enumerate(traversals):
                begin = i * SWITCH_LATENCY_US
                end = begin + tx + SWITCH_LATENCY_US
                plan.append((tr, begin, end))
            if len(self._plan_memo) >= self._PLAN_MEMO_MAX:
                self._plan_memo.clear()
            self._plan_memo[key] = plan
        return plan

    def _intervals(
        self,
        traversals: Sequence[Traversal],
        start_us: float,
        message_bytes: int | None = None,
    ) -> list[tuple[Traversal, float, float]]:
        """Busy interval per channel of a worm launched at ``start_us``.

        Hop ``i`` becomes busy when the head arrives (i switch latencies in)
        and stays busy until the tail clears it (one message-transmission
        time later). ``message_bytes`` overrides the probe size — cross
        traffic carries application payloads, not probe-sized messages.
        """
        return [
            (channel, start_us + begin, start_us + end)
            for channel, begin, end in self._relative_plan(traversals, message_bytes)
        ]

    def try_place(
        self,
        traversals: Sequence[Traversal],
        start_us: float,
        *,
        record_blocked: bool = True,
        message_bytes: int | None = None,
    ) -> WormPlacement:
        """Place the worm crossing ``traversals`` if no channel conflicts;
        record its occupancy.

        On conflict the worm blocks: "should a message block and wait for an
        output port, the rest of the message may remain in the network,
        occupying switch and link resources" (Section 1.1) until the ROM
        timeout fires the forward reset. With ``record_blocked`` the partial
        path up to the blocked channel therefore stays busy for the
        blocked-port timeout — this is what makes contention cascade and
        produces the election mode's long-tail mapping times.
        """
        plan = self._intervals(traversals, start_us, message_bytes)
        for k, (channel, begin, end) in enumerate(plan):
            if self._overlaps(channel, begin, end):
                reset_at = begin + BLOCKED_PORT_TIMEOUT_US
                if record_blocked:
                    for held_channel, held_begin, _held_end in plan[:k]:
                        self._insert(held_channel, held_begin, reset_at)
                return WormPlacement(
                    ok=False,
                    start_us=start_us,
                    finish_us=reset_at,
                    blocked_channel=channel,
                )
        for channel, begin, end in plan:
            self._insert(channel, begin, end)
        finish = plan[-1][2] if plan else start_us
        return WormPlacement(ok=True, start_us=start_us, finish_us=finish)

    # -- internals -------------------------------------------------------
    def _overlaps(self, channel: Traversal, begin: float, end: float) -> bool:
        ivs = self._busy.get(channel)
        if not ivs:
            return False
        idx = bisect.bisect_left(ivs, (begin, begin))
        for j in (idx - 1, idx):
            if 0 <= j < len(ivs):
                b, e = ivs[j]
                if b < end and begin < e:
                    return True
        return False

    def _insert(self, channel: Traversal, begin: float, end: float) -> None:
        ivs = self._busy.setdefault(channel, [])
        bisect.insort(ivs, (begin, end))
