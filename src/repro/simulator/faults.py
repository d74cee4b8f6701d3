"""Fault injection: the "other errors" of Section 2.3.1.

The proof assumes a quiescent, error-free network, but the paper notes that
probes can also vanish to message corruption and the like. This module lets
experiments inject such failures:

- ``drop_prob`` — a probe (or its reply) silently vanishes;
- ``corrupt_prob`` — the message is destroyed by a CRC failure (identical
  observable effect at the mapper: no response).

A cable that eats every message crossing it is not modelled here: in-band
it answers exactly like a cable that is not there (SANs have no
out-of-band link monitoring, Section 5.6), so a failed cable is a
``Network.disconnect`` (the chaos applier's ``cut`` and ``kill_*`` events).

A ``FaultModel`` is deterministic given its seed, so experiment runs are
reproducible. Mid-run reconfiguration (an operator clearing an error ramp)
goes through the ``set_*`` mutators: the new value is validated first, then
the state and the ``fault_epoch`` counter move together — a failed mutation
leaves both untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["FaultModel", "NO_FAULTS"]


@dataclass
class FaultModel:
    """Stochastic probe-failure injection."""

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for p in (self.drop_prob, self.corrupt_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")
        self._rng = random.Random(self.seed)
        self._epoch = 0

    @property
    def fault_epoch(self) -> int:
        """Monotone counter bumped by every mid-run reconfiguration.

        A probability change has no wire-end footprint, so a consumer that
        reuses structure across it (a seeded remap) compares this against
        the epoch it snapshotted and treats any move as "everything may
        have changed".
        """
        return self._epoch

    def set_drop_prob(self, drop_prob: float) -> None:
        """Change the silent-loss probability mid-run (epoch-bumping).

        Setting the current value again is a no-op (no bump).
        """
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        if drop_prob == self.drop_prob:
            return
        self.drop_prob = drop_prob
        self._epoch += 1

    def set_corrupt_prob(self, corrupt_prob: float) -> None:
        """Change the corruption probability mid-run (epoch-bumping).

        No-op semantics match :meth:`set_drop_prob`.
        """
        if not 0.0 <= corrupt_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        if corrupt_prob == self.corrupt_prob:
            return
        self.corrupt_prob = corrupt_prob
        self._epoch += 1

    def lost(self) -> bool:
        """Decide whether an (otherwise successful) probe is lost.

        Draws once per nonzero probability, drop first: a model with both
        at zero loses nothing and draws nothing.
        """
        if self.drop_prob and self._rng.random() < self.drop_prob:
            return True
        if self.corrupt_prob and self._rng.random() < self.corrupt_prob:
            return True
        return False


#: Shared no-op instance.
NO_FAULTS = FaultModel()
