"""Port-exploration planning: the Section 3.3 "local optimization tricks".

When the mapper explores a switch it entered at an (unknown) port ``q``, the
relative turns worth probing are constrained by what it has already found:

- a successful turn ``t`` proves port ``q + t`` exists, so ``q`` lies in
  ``[-t, radix-1-t]``; intersecting these windows across hits narrows the
  feasible entry ports;
- a turn ``t`` for which *no* feasible ``q`` makes ``q + t`` a legal port is
  guaranteed to fail (ILLEGAL TURN) and is skipped — "these are carefully
  done to eliminate probes only when we are sure they will fail";
- "once we find two turns separated by a distance of 7 that are successful,
  we are done": the window then pins ``q`` exactly and every remaining
  unprobed turn falls outside the legal range (this emerges automatically
  from the window arithmetic);
- probing order: "excluding turn 0, turns of +/-1 are the best, turns of
  +/-2 are the next best, etc." — the default order alternates outward from
  ±1. A fixed ``-7..+7`` order is provided for the ablation benchmark
  (the paper suspects the tricks save "factors of 2 or more").

Failed probes update nothing: "probes that fail to generate a response tell
us nothing about the range of turns that we should be focusing on".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["PortPlan", "ProbePlanner"]


def _alternating_order(radix: int) -> tuple[int, ...]:
    order: list[int] = []
    for mag in range(1, radix):
        order.extend((mag, -mag))
    return tuple(order)


def _fixed_order(radix: int) -> tuple[int, ...]:
    return tuple(t for t in range(-(radix - 1), radix) if t != 0)


@dataclass
class PortPlan:
    """Turn sequence for exploring one switch, updated with probe outcomes."""

    radix: int = 8
    use_window: bool = True
    order: tuple[int, ...] = ()
    _window: tuple[int, int] = field(init=False)
    _cursor: int = field(init=False, default=0)
    skipped: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not self.order:
            self.order = _alternating_order(self.radix)
        self._window = (0, self.radix - 1)

    def next_turn(self) -> int | None:
        """The next turn to probe, or None when the plan is exhausted."""
        lo, hi = self._window
        while self._cursor < len(self.order):
            turn = self.order[self._cursor]
            self._cursor += 1
            if not self.use_window:
                return turn
            # Turn t can be legal for some feasible entry port q iff
            # q + t lands in [0, radix-1] for some q in [lo, hi].
            if -hi <= turn <= (self.radix - 1) - lo:
                return turn
            self.skipped += 1
        return None

    def feed(self, turn: int, found_wire: bool) -> None:
        """Report a probe outcome. Only hits narrow the entry-port window."""
        if not found_wire or not self.use_window:
            return
        lo, hi = self._window
        self._window = (max(lo, -turn), min(hi, self.radix - 1 - turn))

    @property
    def entry_port_window(self) -> tuple[int, int]:
        """Feasible absolute entry ports given the hits so far."""
        return self._window

    def turns(self) -> Iterator[int]:
        """Iterate remaining turns; callers must still call :meth:`feed`."""
        while True:
            t = self.next_turn()
            if t is None:
                return
            yield t


@dataclass(frozen=True, slots=True)
class ProbePlanner:
    """Factory for per-switch :class:`PortPlan` objects.

    ``heuristic=False`` yields the naive plan (fixed order, no window
    pruning) for the ablation study.
    """

    radix: int = 8
    heuristic: bool = True

    def new_plan(self) -> PortPlan:
        if self.heuristic:
            return PortPlan(radix=self.radix, use_window=True)
        return PortPlan(
            radix=self.radix, use_window=False, order=_fixed_order(self.radix)
        )
