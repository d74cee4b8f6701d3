"""The probe interface: everything a mapper may ask of the network.

Section 2.3: a *probe* is a pair of tests built on the same turn string
``a1...ak`` (all ``a_i != 0``):

- SWITCH-PROBE — send ``a1...ak 0 -ak...-a1``; receiving this loopback
  message back proves an output port of a switch k hops away is connected
  to another switch;
- HOST-PROBE — send ``a1...ak``; a reply identifies (uniquely) the host at
  the end of the path.

Probing computes the response function
``R: turn-strings -> H ∪ {"switch", "nothing"}``. Mapping algorithms only
ever see ``R`` plus the passage of (simulated) time; they never touch the
:class:`~repro.topology.model.Network` itself. This boundary is what makes
the mapper implementations honest reproductions of in-band discovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple, Protocol, runtime_checkable

from repro.simulator.turns import Turns

__all__ = ["ProbeKind", "ProbeRecord", "ProbeService", "ProbeStats"]


class ProbeKind(enum.Enum):
    HOST = "host"
    SWITCH = "switch"


class ProbeRecord(NamedTuple):
    """One probe in the trace: kind, turns, outcome, time charged (µs)."""

    kind: ProbeKind
    turns: Turns
    hit: bool
    cost_us: float
    response: str | None = None


@dataclass
class ProbeStats:
    """Accounting in the vocabulary of Figure 6.

    ``host_probes``/``host_hits`` and ``switch_probes``/``switch_hits``
    correspond directly to the columns of the Figure 6 table; ``elapsed_us``
    accumulates the timing model's per-probe costs. The probe engine
    counts each probe it answers into these fields, whether or not a layer
    asked for its :class:`ProbeRecord`.
    """

    host_probes: int = 0
    host_hits: int = 0
    switch_probes: int = 0
    switch_hits: int = 0
    elapsed_us: float = 0.0

    @property
    def total_probes(self) -> int:
        return self.host_probes + self.switch_probes

    @property
    def total_hits(self) -> int:
        return self.host_hits + self.switch_hits

    @property
    def host_hit_ratio(self) -> float:
        return self.host_hits / self.host_probes if self.host_probes else 0.0

    @property
    def switch_hit_ratio(self) -> float:
        return self.switch_hits / self.switch_probes if self.switch_probes else 0.0

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_us / 1000.0

    def snapshot(self) -> "ProbeStats":
        """Copy of the counters."""
        return replace(self)


@runtime_checkable
class ProbeService(Protocol):
    """What a mapper may do: send the two probe kinds, read its own clock,
    and know the switch radix of its fabric (its turn alphabet, Section 2.2).
    """

    @property
    def mapper_host(self) -> str:
        """The host this service injects probes from."""
        ...  # pragma: no cover - protocol

    @property
    def stats(self) -> ProbeStats:
        ...  # pragma: no cover - protocol

    @property
    def radix(self) -> int:
        """The largest switch radix of the fabric: every mapper's radix."""
        ...  # pragma: no cover - protocol

    def probe_host(self, turns: Turns) -> str | None:
        """HOST-PROBE: the responding host's unique name, or None."""
        ...  # pragma: no cover - protocol

    def probe_switch(self, turns: Turns) -> bool:
        """SWITCH-PROBE: True iff the loopback message returned."""
        ...  # pragma: no cover - protocol
