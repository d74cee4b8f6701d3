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
  ``utility=True`` are ignored by :func:`_pick_root`);
- locally dominant switches — "the BFS numbering of these switches is such
  that all edges lead away from them; consequently, no route will ever use
  them" — are "relabeled with the minimum of their neighbors' BFS labels
  minus one", which makes every one of their edges a down edge out of them
  and restores their usability.

Labels are totally ordered pairs ``(level, tiebreak)`` so that parallel
wires and equal BFS depths orient deterministically. A level is the plain
int BFS depth; only a relabeled dominant switch gets a ``Fraction`` (a
half below its lowest neighbour), and an int and a ``Fraction`` compare
and equal by value.

Root choice and labelling are plain BFS rows over one integer-indexed
fabric (:class:`~repro.topology.analysis._Fabric`, nodes in name order),
built once per :func:`orient_updown`. A host has one wire, so it is one
hop further from everything than the switch it hangs off: the root is
scored from one BFS row per host-bearing switch, not one per host. A
caller that orients map after map passes the same
:class:`~repro.topology.analysis.DistanceMemo`, and a map that only lost
wires re-runs only the rows the loss changed (docs/ALGORITHM.md §5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from repro.topology.analysis import DistanceMemo, _Fabric
from repro.topology.model import Network

__all__ = ["UpDownOrientation", "orient_updown"]


def _pick_root(
    net: Network,
    fab: _Fabric,
    distances: Callable[[int], list[int]],
    ignore_utility: bool,
) -> str:
    """The switch maximizing distance from all (non-utility) hosts.

    Distance to the host set is the minimum hop distance to any considered
    host; ties break on the larger *total* distance, then on name (for
    determinism). This "picks a natural root of the network and allows
    packets to flow up to the least common ancestor of a source and
    destination". ``fab`` indexes the nodes in name order and
    ``distances`` answers its BFS rows.
    """
    hosts = [
        h
        for h in net.hosts
        if not (ignore_utility and net.meta(h).get("utility"))
    ]
    if not hosts:
        hosts = list(net.hosts)
    if not hosts:
        raise ValueError("network has no hosts to route between")
    # One BFS row per attachment switch, weighted by the hosts on it (each
    # one hop further than the switch); a host wired to no switch reaches
    # none and contributes nothing.
    index = {name: i for i, name in enumerate(fab.names)}
    is_host = fab.is_host
    hosts_on = Counter(
        attached
        for h in hosts
        for attached in fab.nbrs[index[h]]
        if not is_host[attached]
    )
    switches = [i for i, host in enumerate(is_host) if not host]
    nearest: dict[int, int] = {}
    total: dict[int, int] = {}
    for attached, count in hosts_on.items():
        row = distances(attached)
        for s in switches:
            hops = row[s] + 1
            if hops:  # row[s] is -1 where the switch is not reached
                nearest[s] = min(nearest.get(s, hops), hops)
                total[s] = total.get(s, 0) + count * hops
    reached = [s for s in switches if s in nearest]
    if not reached:
        raise ValueError("no switch is reachable from the hosts")
    # max() keeps the first of equal keys: ties break on name.
    return fab.names[max(reached, key=lambda s: (nearest[s], total[s]))]


@dataclass(slots=True)
class UpDownOrientation:
    """BFS labels and the up/down orientation of every wire."""

    root: str
    labels: dict[str, tuple[int | Fraction, int]]
    relabeled: list[str] = field(default_factory=list)

    def is_up(self, from_node: str, to_node: str) -> bool:
        """Does traversing ``from_node -> to_node`` move up (toward root)?"""
        return self.labels[to_node] < self.labels[from_node]


def orient_updown(
    net: Network,
    *,
    root: str | None = None,
    relabel_dominant: bool = True,
    memo: DistanceMemo | None = None,
) -> UpDownOrientation:
    """Compute the UP*/DOWN* orientation of a network map.

    ``memo`` keeps the root pick's BFS rows from one call to the next.
    """
    ordered = sorted(net.nodes)
    fab = _Fabric.of(net, ordered)
    if root is None:
        if memo is None:
            memo = DistanceMemo()
        memo.begin(fab, None)
        root = _pick_root(net, fab, memo.distances, True)
    if not net.is_switch(root):
        raise ValueError(f"root {root} is not a switch")

    # BFS levels over the underlying simple graph; a node's index is its
    # place in name order.
    level = fab.distances(ordered.index(root))

    # A partial map can be disconnected (islands from partial-view merging
    # or bounded exploration). Each extra component gets its own BFS from a
    # local sub-root; orientations never interact across components because
    # no wire crosses one.
    remaining = [i for i, hops in enumerate(level) if hops < 0]
    while remaining:
        sub_root = next(
            (i for i in remaining if not fab.is_host[i]), remaining[0]
        )
        for i, hops in enumerate(fab.distances(sub_root)):
            if hops >= 0:
                level[i] = hops
        remaining = [i for i in remaining if level[i] < 0]

    # Total order: (level, stable index). Hosts sit below their switch by
    # construction of BFS (their only neighbor is one level up), so host
    # wires orient host -> switch = up automatically.
    labels: dict[str, tuple[int | Fraction, int]] = {
        n: (level[i], i) for i, n in enumerate(ordered)
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
        switches = [i for i, host in enumerate(fab.is_host) if not host]
        while changed and rounds <= net.n_switches * net.n_switches:
            rounds += 1
            changed = False
            for i in switches:
                s = ordered[i]
                if s == root:
                    continue
                nbrs = [ordered[w] for w in fab.nbrs[i]]
                if not nbrs:
                    continue
                if all(labels[n] < labels[s] for n in nbrs):
                    lowest = min(labels[n] for n in nbrs)
                    # "relabeling them with the minimum of their neighbors'
                    # BFS labels minus one" — fractional step keeps the
                    # label above the next level up, preserving the rest of
                    # the order.
                    labels[s] = (lowest[0] - Fraction(1, 2), i)
                    relabeled.append(s)
                    changed = True

    return UpDownOrientation(root=root, labels=labels, relabeled=relabeled)
