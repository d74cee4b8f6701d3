"""Delta journal: what changed between two epochs, as a wire-end set.

``Network`` bumps a monotone epoch counter on every mutation; derived
caches (the path-evaluation trie, a seeded remap) key their validity on it.
A bare counter only supports the wholesale answer "something changed, drop
everything". This module records *what* changed: every ``_bump_epoch``
call journals a :class:`Delta` describing the wire ends whose connectivity
the mutation touched, and a consumer holding an older epoch asks
:meth:`DeltaJournal.since` for the merged delta covering the gap. A wire
end is a :class:`~repro.topology.model.PortRef`, a named tuple equal to
its plain ``(node, port)`` tuple, so delta sets and cache keys of either
form meet without conversion.

The contract (documented for consumers in ``docs/INCREMENTAL.md``):

- ``removed`` — wire ends whose connectivity was taken away (a cable cut,
  a node unplugged or killed). Any cached structure whose derivation
  crossed such an end is stale.
- ``added`` — wire ends that gained connectivity (a cable plugged or
  healed). Cached *absences* (a memoized NO_SUCH_WIRE, a pruned search
  window) keyed on such an end are stale.
- ``since`` returning ``None`` — the requested epoch has fallen out of the
  journal's bounded window. Consumers must treat the whole derived
  structure as suspect.

A delta never under-reports: every mutator journals at least the ends it
touched, so "my footprint is disjoint from the delta" is a sound proof of
freshness. Over-reporting (journaling ends that did not actually change)
costs only wasted invalidation, never correctness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only, model.py imports this module
    from repro.topology.model import PortRef

__all__ = [
    "Delta",
    "DeltaJournal",
    "EMPTY_DELTA",
    "seedable_removals",
]


@dataclass(frozen=True, slots=True)
class Delta:
    """The wire-end footprint of one mutation (or a merged run of them)."""

    removed: frozenset[PortRef] = field(default_factory=frozenset)
    added: frozenset[PortRef] = field(default_factory=frozenset)

    @property
    def empty(self) -> bool:
        return not (self.removed or self.added)

    def merge(self, other: "Delta") -> "Delta":
        """The footprint of applying ``self`` then ``other``.

        Set union is sound even when the same end is removed and later
        re-added: the end stays in both sets, and a consumer that saw the
        state *before* the pair must still re-derive anything that touched
        it (the wire there may now lead somewhere else).
        """
        if other.empty:
            return self
        if self.empty:
            return other
        return Delta(
            removed=self.removed | other.removed,
            added=self.added | other.added,
        )


#: Shared no-change delta (node additions, metadata-only mutations).
EMPTY_DELTA = Delta()


def merge_deltas(deltas: Iterable[Delta]) -> Delta:
    """Fold :meth:`Delta.merge` over a sequence (empty input → no change)."""
    out = EMPTY_DELTA
    for d in deltas:
        out = out.merge(d)
    return out


def seedable_removals(
    delta: Delta | None,
) -> tuple[frozenset[PortRef] | None, str | None]:
    """The seeding soundness ladder over one delta.

    ``delta`` is what ``Network.affected_since`` returned for the epoch
    snapshotted at the prior map. A prior map may seed the next one only
    across a journaled, removals-only delta: returns ``(removed wire ends,
    None)`` then, and ``(None, reason)`` for a delta that fell out of the
    journal window or *added* connectivity (a plugged or healed cable).
    """
    if delta is None:
        return None, "topology delta fell out of the journal window"
    if delta.added:
        return None, (
            "connectivity was added; a kept subtree cannot prove a "
            "wire it never probed does not exist"
        )
    return delta.removed, None


#: How many per-epoch deltas a journal keeps.
JOURNAL_WINDOW = 256


class DeltaJournal:
    """Bounded log of per-epoch deltas, indexed by epoch number.

    Entry ``i`` of the log describes the mutation that moved the owner's
    epoch from ``base + i`` to ``base + i + 1``. The log is bounded: once
    :data:`JOURNAL_WINDOW` entries accumulate, the oldest are discarded
    and ``base`` advances, so a consumer whose epoch predates the window gets ``None``
    from :meth:`since` and must fall back to a full rebuild. The bound
    keeps long-lived owners (a network mutated thousands of times by a
    chaos campaign) at O(window) memory regardless of lifetime.
    """

    __slots__ = ("_base", "_entries")

    def __init__(self) -> None:
        self._base = 0
        self._entries: deque[Delta] = deque()

    def record(self, delta: Delta) -> None:
        """Journal the delta of the mutation that is bumping the epoch."""
        self._entries.append(delta)
        if len(self._entries) > JOURNAL_WINDOW:
            self._entries.popleft()
            self._base += 1

    def since(self, epoch: int, current_epoch: int) -> Delta | None:
        """Merged delta covering ``epoch .. current_epoch``, if in window.

        ``current_epoch`` is the owner's live counter; the caller passes it
        so the journal can verify it has journaled every bump (a defensive
        check — a gap means some mutation bypassed the journal, and the
        only sound answer is "unknown", i.e. ``None``).
        """
        if epoch == current_epoch:
            return EMPTY_DELTA
        if not self._base <= epoch < current_epoch:
            return None
        if self._base + len(self._entries) != current_epoch:
            return None
        start = epoch - self._base
        return merge_deltas(
            d for i, d in enumerate(self._entries) if i >= start
        )
