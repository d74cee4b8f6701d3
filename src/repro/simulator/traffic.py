"""Background application cross-traffic (Section 6 future-work study).

"Accurately mapping the network in the presence of application cross-traffic"
is the paper's first open problem, and Section 7 reports anecdotal evidence
that the algorithm often still maps correctly under heavy traffic. This
module generates random host-to-host worms so the extension experiment can
quantify that claim on the simulator.

Traffic is described by a Poisson process per host pair with a given
aggregate rate; each message follows a shortest-path route (computed from
ground truth — applications have valid route tables). For the quiescent
probe service we expose the simpler :class:`TrafficField` abstraction: the
probability that a given probe survives, derived from per-channel
utilization — and for the event-driven experiments the generator emits
actual worms onto a :class:`~repro.simulator.occupancy.ChannelOccupancy`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from repro.simulator.occupancy import ChannelOccupancy
from repro.simulator.path_eval import PathResult, PathStatus, Traversal
from repro.topology.model import HOST_PORT, Network, PortRef

__all__ = ["CrossTraffic", "host_pair_paths"]

#: Bytes of one background message: traffic worms carry application
#: payloads, much larger than probes, so they hold channels much longer.
MESSAGE_BYTES = 4096
#: The seed of the traffic generator.
TRAFFIC_SEED = 0


def host_pair_paths(net: Network) -> dict[tuple[str, str], list[Traversal]]:
    """Shortest-path traversal lists for every ordered host pair.

    Used to drive realistic cross-traffic: applications exchange messages
    along valid routes. Port-level detail is reconstructed by walking the
    node path and picking the (unique in a shortest path sense) connecting
    wire; with parallel wires the lowest-port one is used.
    """
    g = net.to_networkx()
    paths: dict[tuple[str, str], list[Traversal]] = {}
    hosts = sorted(net.hosts)
    sp = dict(nx.all_pairs_shortest_path(nx.Graph(g)))
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            node_path = sp.get(src, {}).get(dst)
            if node_path is None:
                continue
            traversals: list[Traversal] = []
            ok = True
            for u, v in zip(node_path, node_path[1:]):
                wire = _any_wire(net, u, v)
                if wire is None:
                    ok = False
                    break
                end_u = wire.a if wire.a.node == u else wire.b
                traversals.append(Traversal(end_u, wire.other_end(end_u)))
            if ok:
                paths[(src, dst)] = traversals
    return paths


def _any_wire(net: Network, u: str, v: str):
    for wire in net.wires_of(u):
        if {wire.a.node, wire.b.node} == {u, v} or (
            u == v and wire.a.node == u and wire.b.node == u
        ):
            return wire
    return None


@dataclass
class CrossTraffic:
    """Poisson cross-traffic injected onto a channel-occupancy fabric.

    ``rate_msgs_per_ms`` is the aggregate message rate across all host
    pairs, none of them to or from ``exclude_hosts``; each message is
    :data:`MESSAGE_BYTES` long.

    ``fill_until(t)`` lazily extends the injected traffic to cover the
    simulation clock — callers advance it as their own time advances, so
    the work done is proportional to the mapping duration rather than to a
    fixed horizon.
    """

    net: Network
    occupancy: ChannelOccupancy
    exclude_hosts: frozenset[str]
    rate_msgs_per_ms: float = 1.0

    def __post_init__(self) -> None:
        self._rng = random.Random(TRAFFIC_SEED)
        self._cursor_us = 0.0
        self._pairs: list | None = None
        self.messages_placed = 0
        self.messages_blocked = 0

    def _pair_list(self) -> list:
        if self._pairs is None:
            self._pairs = [
                (key, trs)
                for key, trs in host_pair_paths(self.net).items()
                if key[0] not in self.exclude_hosts
                and key[1] not in self.exclude_hosts
            ]
        return self._pairs

    def fill_until(self, t_us: float) -> int:
        """Extend traffic coverage to ``t_us``; returns messages placed."""
        if self.rate_msgs_per_ms <= 0 or t_us <= self._cursor_us:
            return 0
        pairs = self._pair_list()
        if not pairs:
            self._cursor_us = t_us
            return 0
        placed_before = self.messages_placed
        mean_gap_us = 1000.0 / self.rate_msgs_per_ms
        while self._cursor_us < t_us:
            self._cursor_us += self._rng.expovariate(1.0 / mean_gap_us)
            if self._cursor_us >= t_us:
                break
            _, traversals = pairs[self._rng.randrange(len(pairs))]
            path = PathResult(
                status=PathStatus.DELIVERED,
                nodes=[],
                traversals=list(traversals),
            )
            placement = self.occupancy.try_place(
                path,
                self._cursor_us,
                message_bytes=MESSAGE_BYTES,
                record_blocked=True,
            )
            if placement.ok:
                self.messages_placed += 1
            else:
                self.messages_blocked += 1
        return self.messages_placed - placed_before
