"""Mapper daemon placement: which hosts answer probes.

Both algorithms have "two operational modes, one where a master maps the
network while all others interfaces respond to incoming probe messages, and
another where all interfaces or hosts actively map the network" (Section 4.2).
Figure 9 additionally varies *how many* hosts run a daemon at all: a
host-probe reaching a daemon-less host gets no reply, so it costs the mapper
a timeout instead of a round-trip.

:class:`DaemonPlacement` captures one configuration; the class methods build
the placements the Figure 9 experiment sweeps (sequential fill in node
order vs. uniformly random placement).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.topology.model import Network

__all__ = ["DaemonPlacement"]


@dataclass(frozen=True)
class DaemonPlacement:
    """A set of hosts running mapper daemons."""

    responders: frozenset[str]

    @classmethod
    def sequential_fill(cls, net: Network, count: int) -> "DaemonPlacement":
        """First ``count`` hosts in sorted (node-number) order.

        Figure 9's top line: "additional mappers were run in order of
        increasing node number", filling out each subcluster completely
        before moving on (sorted names group by subcluster prefix).
        """
        hosts = sorted(net.hosts)
        return cls(frozenset(hosts[: max(0, count)]))

    @classmethod
    def random_fill(cls, net: Network, count: int) -> "DaemonPlacement":
        """``count`` uniformly random hosts (Figure 9's bottom line)."""
        hosts = sorted(net.hosts)
        rng = random.Random(0)
        rng.shuffle(hosts)
        return cls(frozenset(hosts[: max(0, count)]))

    def including(self, *hosts: str) -> "DaemonPlacement":
        """The placement with ``hosts`` added (the mapper must respond)."""
        return DaemonPlacement(self.responders | set(hosts))
