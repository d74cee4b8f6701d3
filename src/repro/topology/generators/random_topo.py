"""Seeded random system-area networks for property-based testing.

The correctness theorem quantifies over *arbitrary* connected networks, so
the property tests need a generator that covers the space: random connected
switch graphs (with parallel cables and optional switch-bridges producing a
non-empty ``F``), hosts attached at random switches, all within radix
constraints.
"""

from __future__ import annotations

import random

from repro.topology.builder import NetworkBuilder
from repro.topology.model import Network, TopologyError

__all__ = ["random_san"]


def random_san(
    *,
    n_switches: int,
    n_hosts: int,
    extra_links: int = 0,
    parallel_link_prob: float = 0.0,
    pendant_switches: int = 0,
    seed: int = 0,
) -> Network:
    """Generate a random connected SAN.

    Construction: a random switch spanning tree (guarantees connectivity),
    ``extra_links`` additional random switch-switch cables (each a chance to
    create multipaths and hence replicates for the mapper to resolve),
    optional parallel cables, then ``n_hosts`` hosts attached to random
    switches. ``pendant_switches`` adds host-free switch chains hanging off
    a single cable — these are behind switch-bridges and populate ``F``.

    Switches have radix 8 and names start ``r-``. Deterministic for a
    given seed. Raises :class:`TopologyError` when the requested density
    cannot fit the radix.
    """
    if n_switches < 1:
        raise TopologyError("need at least one switch")
    if n_hosts < 2:
        raise TopologyError("the model requires at least two hosts")
    rng = random.Random(seed)
    b = NetworkBuilder()
    switches = [f"r-s{i}" for i in range(n_switches)]
    for s in switches:
        b.switch(s)

    net = b.peek()

    # Random spanning tree: connect each new switch to a uniformly random
    # already-connected one (random recursive tree).
    for i in range(1, n_switches):
        for _ in range(64):
            target = switches[rng.randrange(i)]
            if net.free_ports(target) and net.free_ports(switches[i]):
                b.link(switches[i], target)
                break
        else:
            raise TopologyError("could not place spanning-tree link within radix")

    def _random_pair() -> tuple[str, str] | None:
        candidates = [s for s in switches if net.free_ports(s)]
        if len(candidates) < 2:
            return None
        a, c = rng.sample(candidates, 2)
        return a, c

    placed = 0
    attempts = 0
    while placed < extra_links and attempts < extra_links * 20 + 20:
        attempts += 1
        pair = _random_pair()
        if pair is None:
            break
        a, c = pair
        b.link(a, c)
        placed += 1
        if parallel_link_prob and rng.random() < parallel_link_prob:
            if net.free_ports(a) and net.free_ports(c):
                b.link(a, c)

    # Pendant (host-free) switch chains: one cable in, nothing else -> the
    # cable is a switch-bridge and the chain lands in F.
    for i in range(pendant_switches):
        name = f"r-f{i}"
        b.switch(name)
        anchors = [s for s in switches if net.free_ports(s)]
        if not anchors:
            raise TopologyError("no free port for pendant switch")
        b.link(name, rng.choice(anchors))

    placed_hosts = 0
    attempts = 0
    while placed_hosts < n_hosts:
        attempts += 1
        if attempts > n_hosts * 50:
            raise TopologyError("could not attach all hosts within radix")
        target = switches[rng.randrange(n_switches)]
        if net.free_ports(target):
            host = f"r-h{placed_hosts}"
            b.host(host)
            b.attach(host, target)
            placed_hosts += 1

    return b.build(require_connected=True)
