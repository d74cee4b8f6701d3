"""Structural diffs between network maps.

"These networks should be dynamically reconfigurable, automatically
adapting to the addition or removal of hosts, switches and links." The
remapping daemon needs to answer: *did anything change since the last map,
and what?* Switch names are mapper-run-local and ports are only determined
up to per-switch offsets, so a naive comparison is useless; the diff works
on the offset-invariant skeleton:

- hosts compare by their (stable, unique) names;
- a host's *attachment signature* is the multiset of observations at its
  switch: which hosts share the switch and the switch's degree;
- switch/wire population compares by count and by the degree multiset.

The result distinguishes "identical up to renaming/offsets" (via the full
isomorphism check) from specific host arrivals/departures and capacity
changes — enough for a remapper to decide whether to recompute routes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.topology.isomorphism import match_networks
from repro.topology.model import Network

__all__ = ["MapDiff", "diff_networks"]


@dataclass(slots=True)
class MapDiff:
    """What changed between two maps (``old`` → ``new``)."""

    identical: bool
    hosts_added: list[str] = field(default_factory=list)
    hosts_removed: list[str] = field(default_factory=list)
    hosts_moved: list[str] = field(default_factory=list)
    switch_count_delta: int = 0
    wire_count_delta: int = 0
    degree_profile_changed: bool = False

    def summary(self) -> str:
        if self.identical:
            return "no change"
        parts = []
        if self.hosts_added:
            parts.append(f"+{len(self.hosts_added)} hosts")
        if self.hosts_removed:
            parts.append(f"-{len(self.hosts_removed)} hosts")
        if self.hosts_moved:
            parts.append(f"{len(self.hosts_moved)} hosts moved")
        if self.switch_count_delta:
            parts.append(f"switches {self.switch_count_delta:+d}")
        if self.wire_count_delta:
            parts.append(f"wires {self.wire_count_delta:+d}")
        if self.degree_profile_changed and not parts:
            parts.append("rewiring (same counts)")
        return ", ".join(parts) or "structural change"


def _observations(net: Network) -> tuple[dict[str, tuple], Counter]:
    """Every host's attachment signature and the switch degree profile,
    from one pass over the wires.

    A host's signature is what its switch shows — the switch's degree (a
    loopback cable counts twice) and its sorted host neighbours — so every
    host on one switch shares one entry. A host is among its own switch's
    neighbours in both maps, so keeping it in changes no comparison.
    """
    hosts = set(net.hosts)
    degree: Counter = Counter()
    site: dict[str, str] = {}
    peers: dict[str, list[str]] = {}
    for wire in net.wires:
        a, b = wire.a.node, wire.b.node
        degree[a] += 1
        degree[b] += 1
        for end, far in ((a, b), (b, a)):
            if end in hosts:
                site[end] = far
                peers.setdefault(far, []).append(end)
    shown = {node: (degree[node], tuple(sorted(on))) for node, on in peers.items()}
    signatures = {h: shown[site[h]] if h in site else ("detached",) for h in hosts}
    return signatures, Counter(degree[s] for s in net.switches)


def diff_networks(old: Network, new: Network) -> MapDiff:
    """Compare two maps; exact isomorphism short-circuits to 'identical'."""
    if match_networks(old, new):
        return MapDiff(identical=True)

    (old_sig, old_profile), (new_sig, new_profile) = _observations(old), _observations(new)
    added = sorted(new_sig.keys() - old_sig.keys())
    removed = sorted(old_sig.keys() - new_sig.keys())
    moved = sorted(h for h in old_sig.keys() & new_sig.keys() if old_sig[h] != new_sig[h])
    return MapDiff(
        identical=False,
        hosts_added=added,
        hosts_removed=removed,
        hosts_moved=moved,
        switch_count_delta=new.n_switches - old.n_switches,
        wire_count_delta=new.n_wires - old.n_wires,
        degree_profile_changed=old_profile != new_profile,
    )
