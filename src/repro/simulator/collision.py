"""The two probe-failure models of Section 2.3.1, plus ideal packet routing.

Worm self-collision ("stepping on one's tail") is the central complication
of the paper. A worm blocks when its head attempts to cross a directed
channel that its own body still occupies:

- **Packet routing** (`PacketModel`): messages are store-and-forwarded whole;
  a message never collides with itself. The trivially-correct setting of the
  introduction.
- **Circuit routing** (`CircuitModel`): the worm holds its entire path until
  completion, so *any* repeated directed-channel crossing blocks. This is
  collision model (1): "host-probes reusing edges in the same direction fail
  and switch-probes reusing an edge in either direction fail because they
  must return" — the switch-probe's return pass converts any undirected
  reuse on the way out into a directed reuse of the full path.
- **Cut-through routing** (`CutThroughModel`): "probes reusing an edge may
  or may not fail", because per-port buffering lets the tail advance. A worm
  blocks on a directed channel only if its previous same-direction crossing
  was recent enough that the tail has not yet passed. We parameterize this
  with ``slack_hops``: the number of most recent crossings the worm body
  still occupies, ``ceil(message_bytes / per_port_buffer_bytes)`` in
  hardware terms. ``slack_hops=inf`` degenerates to the circuit model;
  ``slack_hops=0`` to packet routing.

All models consume the directed traversal list of
:class:`~repro.simulator.path_eval.PathResult` and return the index of the
first blocking traversal, or ``None`` if the worm completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.simulator.path_eval import Traversal

__all__ = [
    "CircuitModel",
    "CollisionModel",
    "CutThroughModel",
    "PacketModel",
]


class CollisionModel(Protocol):
    """Decides whether a worm blocks on its own body."""

    def blocked_at(self, traversals: Sequence[Traversal]) -> int | None:
        """Index of the first traversal that blocks, or None."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True, slots=True)
class PacketModel:
    """Store-and-forward packets: no self-collision ever."""

    def blocked_at(self, traversals: Sequence[Traversal]) -> int | None:
        return None


@dataclass(frozen=True, slots=True)
class CircuitModel:
    """The worm holds its whole path: any directed reuse blocks."""

    def blocked_at(self, traversals: Sequence[Traversal]) -> int | None:
        seen: set[tuple] = set()
        for i, tr in enumerate(traversals):
            key = (tr.src, tr.dst)
            if key in seen:
                return i
            seen.add(key)
        return None


@dataclass(frozen=True, slots=True)
class CutThroughModel:
    """Cut-through with finite per-port buffering.

    A directed channel is still occupied by the worm's body for the most
    recent ``slack_hops`` crossings; re-crossing within that window blocks.

    ``from_message(...)`` derives ``slack_hops`` from hardware parameters.
    """

    slack_hops: int = 1

    def __post_init__(self) -> None:
        if self.slack_hops < 0:
            raise ValueError("slack_hops must be non-negative")

    @classmethod
    def from_message(
        cls, *, message_bytes: int, per_port_buffer_bytes: int = 108
    ) -> "CutThroughModel":
        """Hardware derivation: how many hops of buffering the body spans."""
        if message_bytes <= 0 or per_port_buffer_bytes <= 0:
            raise ValueError("sizes must be positive")
        return cls(slack_hops=math.ceil(message_bytes / per_port_buffer_bytes))

    def blocked_at(self, traversals: Sequence[Traversal]) -> int | None:
        last_use: dict[tuple, int] = {}
        for i, tr in enumerate(traversals):
            key = (tr.src, tr.dst)
            prev = last_use.get(key)
            if prev is not None and (i - prev) <= self.slack_hops:
                return i
            last_use[key] = i
        return None
