"""Fault injection: the "other errors" of Section 2.3.1.

The proof assumes a quiescent, error-free network, but the paper notes that
probes can also vanish to message corruption and the like. This module lets
experiments inject such failures:

- ``drop_prob`` — a probe (or its reply) silently vanishes;
- ``corrupt_prob`` — the message is destroyed by a CRC failure (identical
  observable effect at the mapper: no response);
- ``dead_wires`` — cables that eat every message crossing them (a failed
  link that the physical layer has not reported anywhere — SANs have no
  out-of-band link monitoring, Section 5.6).

A ``FaultModel`` is deterministic given its seed, so experiment runs are
reproducible. Mid-run reconfiguration (a cable failing under the mapper, an
operator clearing an error ramp) goes through the ``set_*`` mutators, which
are atomic with respect to the ``fault_epoch`` counter: the new value is
validated and fully constructed first, then the state and the epoch move
together — a failed mutation leaves both untouched, so caches keyed on the
epoch can never observe a half-applied fault set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.simulator.path_eval import Traversal
from repro.topology.delta import (
    Delta,
    DeltaJournal,
    Endpoint,
    UNBOUNDED_DELTA,
)

__all__ = ["FaultModel", "NO_FAULTS"]


def _wire_end_delta(
    removed_wires: Iterable[frozenset], added_wires: Iterable[frozenset]
) -> Delta:
    """Describe a dead-set change as a wire-end delta.

    Dead-wire entries are frozensets of :class:`~repro.topology.model.PortRef`
    ends. A wire *entering* the dead set removes connectivity at its ends; a
    wire *leaving* it restores connectivity. An entry whose elements do not
    carry ``node``/``port`` (the model accepts any frozenset) cannot be
    localized, so the delta degrades to unbounded rather than under-report.
    """
    removed: set[Endpoint] = set()
    added: set[Endpoint] = set()
    for pairs, into in ((removed_wires, removed), (added_wires, added)):
        for pair in pairs:
            for end in pair:
                node = getattr(end, "node", None)
                port = getattr(end, "port", None)
                if node is None or port is None:
                    return UNBOUNDED_DELTA
                into.add((node, port))
    return Delta(removed=frozenset(removed), added=frozenset(added))


@dataclass
class FaultModel:
    """Stochastic and structural probe-failure injection."""

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    dead_wires: frozenset[frozenset] = field(default_factory=frozenset)
    seed: int = 0

    def __post_init__(self) -> None:
        for p in (self.drop_prob, self.corrupt_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        self._rng = random.Random(self.seed)
        self._journal = DeltaJournal()
        self._epoch = 0

    @property
    def active(self) -> bool:
        return bool(self.drop_prob or self.corrupt_prob or self.dead_wires)

    @property
    def fault_epoch(self) -> int:
        """Monotone counter bumped by every mid-run reconfiguration.

        Caches that memoize fault-dependent decisions key their validity on
        this, mirroring ``Network.topology_epoch``.
        """
        return self._epoch

    def _bump_epoch(self, delta: Delta) -> None:
        """The canonical epoch bump: every mutator's last act.

        ``delta`` journals the wire-end footprint of the mutation (see
        :mod:`repro.topology.delta`), queryable via :meth:`affected_since`.
        """
        self._journal.record(delta)
        self._epoch += 1

    def affected_since(self, epoch: int) -> Delta | None:
        """Merged delta of every reconfiguration since ``epoch``.

        ``None`` means ``epoch`` predates the bounded journal window and
        the caller must assume everything changed.
        """
        return self._journal.since(epoch, self._epoch)

    def set_dead_wires(self, dead_wires: Iterable[frozenset]) -> None:
        """Replace the dead-wire set mid-run (models a cable failing).

        The replacement set is materialized before any state moves, so an
        iterable that raises partway through leaves the model (and its
        epoch) exactly as it was. Replacing the set with an equal one is a
        true no-op: no epoch bump, no journal entry — callers that
        recompute their dead set wholesale (the chaos applier does, after
        every event) must not force downstream cache flushes when nothing
        actually changed.
        """
        new = frozenset(frozenset(pair) for pair in dead_wires)
        for pair in new:
            if not pair:
                raise ValueError("a dead wire needs at least one wire end")
        if new == self.dead_wires:
            return
        delta = _wire_end_delta(new - self.dead_wires, self.dead_wires - new)
        self.dead_wires = new
        self._bump_epoch(delta)

    def set_drop_prob(self, drop_prob: float) -> None:
        """Change the silent-loss probability mid-run (epoch-bumping).

        Setting the current value again is a no-op (no bump, no journal
        entry). A real change journals an *unbounded* delta: probability
        shifts have no wire-end footprint, so structure-reusing consumers
        must treat the whole prior derivation as suspect.
        """
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        if drop_prob == self.drop_prob:
            return
        self.drop_prob = drop_prob
        self._bump_epoch(UNBOUNDED_DELTA)

    def set_corrupt_prob(self, corrupt_prob: float) -> None:
        """Change the corruption probability mid-run (epoch-bumping).

        No-op and unbounded-delta semantics match :meth:`set_drop_prob`.
        """
        if not 0.0 <= corrupt_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        if corrupt_prob == self.corrupt_prob:
            return
        self.corrupt_prob = corrupt_prob
        self._bump_epoch(UNBOUNDED_DELTA)

    def kills_traversals(self, traversals: Sequence[Traversal]) -> bool:
        """Decide whether an (otherwise successful) probe along these
        wire crossings is lost."""
        if self.dead_wires:
            for tr in traversals:
                if frozenset((tr.src, tr.dst)) in self.dead_wires:
                    return True
        if self.drop_prob and self._rng.random() < self.drop_prob:
            return True
        if self.corrupt_prob and self._rng.random() < self.corrupt_prob:
            return True
        return False


#: Shared no-op instance.
NO_FAULTS = FaultModel()
