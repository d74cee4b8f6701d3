"""UP*/DOWN* edge orientation (Section 5.5).

"To compute the edge orderings, the algorithm picks a switch as far away
from all hosts as possible to use as the root of a breadth-first labeling of
the network map. Up edges point towards the chosen root ... and down edges
point away from the chosen root." Hosts are labeled one level below their
switch, so the first hop of any host-to-host route is an up edge and the
last a down edge.

Two refinements from the paper are implemented:

- "in our system, we ignore the specially-designated utility host when
  picking a switch distant from all hosts" (hosts with metadata
  ``utility=True`` are ignored by :func:`pick_root`);
- locally dominant switches — "the BFS numbering of these switches is such
  that all edges lead away from them; consequently, no route will ever use
  them" — are "relabeled with the minimum of their neighbors' BFS labels
  minus one", which makes every one of their edges a down edge out of them
  and restores their usability.

Labels are totally ordered pairs ``(level, tiebreak)`` so that parallel
wires and equal BFS depths orient deterministically.

Root choice and labelling are plain BFS over one neighbour-set adjacency,
built once per :func:`orient_updown`. A host has one wire, so it is one
hop further from everything than the switch it hangs off: the root is
scored from one BFS per host-bearing switch, not one per host.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction

from repro.topology.model import Network

__all__ = ["UpDownOrientation", "orient_updown", "pick_root"]


def _adjacency(net: Network) -> dict[str, set[str]]:
    """Neighbour sets of the underlying simple graph (loopbacks ignored)."""
    adjacency: dict[str, set[str]] = {n: set() for n in net.nodes}
    for wire in net.wires:
        u, v = wire.nodes
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def _hops_from(start: str, adjacency: dict[str, set[str]]) -> dict[str, int]:
    """Plain BFS hop counts from ``start`` to everything it reaches."""
    hops = {start: 0}
    queue: deque[str] = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def pick_root(net: Network, *, ignore_utility: bool = True) -> str:
    """The switch maximizing distance from all (non-utility) hosts.

    Distance to the host set is the minimum hop distance to any considered
    host; ties break on the larger *total* distance, then on name (for
    determinism). This "picks a natural root of the network and allows
    packets to flow up to the least common ancestor of a source and
    destination".
    """
    return _pick_root(net, _adjacency(net), ignore_utility)


def _pick_root(
    net: Network, adjacency: dict[str, set[str]], ignore_utility: bool
) -> str:
    hosts = [
        h
        for h in net.hosts
        if not (ignore_utility and net.meta(h).get("utility"))
    ]
    if not hosts:
        hosts = list(net.hosts)
    if not hosts:
        raise ValueError("network has no hosts to route between")
    # One BFS per attachment switch, weighted by the hosts on it (each one
    # hop further than the switch); a host wired to no switch reaches none
    # and contributes nothing.
    hosts_on = Counter(
        attached
        for h in hosts
        for attached in adjacency[h]
        if net.is_switch(attached)
    )
    nearest: dict[str, int] = {}
    total: dict[str, int] = {}
    for attached, count in hosts_on.items():
        for node, hops in _hops_from(attached, adjacency).items():
            nearest[node] = min(nearest.get(node, hops + 1), hops + 1)
            total[node] = total.get(node, 0) + count * (hops + 1)
    reached = [s for s in sorted(net.switches) if s in nearest]
    if not reached:
        raise ValueError("no switch is reachable from the hosts")
    # max() keeps the first of equal keys: ties break on name.
    return max(reached, key=lambda s: (nearest[s], total[s]))


@dataclass(slots=True)
class UpDownOrientation:
    """BFS labels and the up/down orientation of every wire."""

    root: str
    labels: dict[str, tuple[Fraction, int]]
    relabeled: list[str] = field(default_factory=list)

    def label(self, node: str) -> tuple[Fraction, int]:
        return self.labels[node]

    def is_up(self, from_node: str, to_node: str) -> bool:
        """Does traversing ``from_node -> to_node`` move up (toward root)?"""
        return self.labels[to_node] < self.labels[from_node]


def orient_updown(
    net: Network, *, root: str | None = None, relabel_dominant: bool = True
) -> UpDownOrientation:
    """Compute the UP*/DOWN* orientation of a network map."""
    adjacency = _adjacency(net)
    if root is None:
        root = _pick_root(net, adjacency, True)
    if not net.is_switch(root):
        raise ValueError(f"root {root} is not a switch")

    # BFS levels over the underlying simple graph.
    level = _hops_from(root, adjacency)

    # A partial map can be disconnected (islands from partial-view merging
    # or bounded exploration). Each extra component gets its own BFS from a
    # local sub-root; orientations never interact across components because
    # no wire crosses one.
    ordered = sorted(net.nodes)
    remaining = [n for n in ordered if n not in level]
    while remaining:
        sub_root = next(
            (n for n in remaining if net.is_switch(n)), remaining[0]
        )
        level.update(_hops_from(sub_root, adjacency))
        remaining = [n for n in remaining if n not in level]

    # Total order: (level, stable index). Hosts sit below their switch by
    # construction of BFS (their only neighbor is one level up), so host
    # wires orient host -> switch = up automatically.
    tiebreak = {n: i for i, n in enumerate(ordered)}
    labels: dict[str, tuple[Fraction, int]] = {
        n: (Fraction(level[n]), i) for n, i in tiebreak.items()
    }

    relabeled: list[str] = []
    if relabel_dominant:
        # A locally dominant switch is a local *maximum* of the labeling:
        # every neighbor is closer to the root, so entering it is a down
        # move and leaving it an up move — the forbidden turn. No valid
        # route can pass through it. Iterate to a fixed point (relabeling
        # one switch can expose another), with a safety cap.
        changed = True
        rounds = 0
        while changed and rounds <= net.n_switches * net.n_switches:
            rounds += 1
            changed = False
            for s in sorted(net.switches):
                if s == root or s not in labels:
                    continue
                nbrs = [n for n in adjacency[s] if n in labels]
                if not nbrs:
                    continue
                if all(labels[n] < labels[s] for n in nbrs):
                    lowest = min(labels[n] for n in nbrs)
                    # "relabeling them with the minimum of their neighbors'
                    # BFS labels minus one" — fractional step keeps the
                    # label above the next level up, preserving the rest of
                    # the order.
                    labels[s] = (lowest[0] - Fraction(1, 2), tiebreak[s])
                    relabeled.append(s)
                    changed = True

    return UpDownOrientation(root=root, labels=labels, relabeled=relabeled)
