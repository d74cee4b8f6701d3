"""Topologies by name: the vocabulary of ``san-map generate`` and of a
map-server tenant spec.

Each kind builds from a flat parameter mapping (``size``,
``hosts_per_switch``, ``seed``, ``k``, ``hosts_per_edge``); a kind reads
only the parameters it needs and defaults the rest.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.topology.generators.fattree import build_three_tier_fat_tree
from repro.topology.generators.now import build_full_now, build_subcluster
from repro.topology.generators.random_topo import random_san
from repro.topology.generators.regular import (
    build_chain,
    build_hypercube,
    build_mesh,
    build_ring,
    build_torus,
)
from repro.topology.model import Network

__all__ = ["NAMED_TOPOLOGIES", "build_named_topology"]

Params = Mapping[str, Any]


def _size(p: Params) -> int:
    return int(p.get("size", 4))


def _hps(p: Params) -> int:
    return int(p.get("hosts_per_switch", 1))


NAMED_TOPOLOGIES: dict[str, Callable[[Params], Network]] = {
    "now-a": lambda p: build_subcluster("A"),
    "now-b": lambda p: build_subcluster("B"),
    "now-c": lambda p: build_subcluster("C"),
    "now-full": lambda p: build_full_now(),
    "ring": lambda p: build_ring(_size(p), hosts_per_switch=_hps(p)),
    "chain": lambda p: build_chain(_size(p), hosts_per_switch=_hps(p)),
    "mesh": lambda p: build_mesh(_size(p), _size(p), hosts_per_switch=_hps(p)),
    "torus": lambda p: build_torus(_size(p), _size(p), hosts_per_switch=_hps(p)),
    "hypercube": lambda p: build_hypercube(_size(p), hosts_per_switch=_hps(p)),
    "random": lambda p: random_san(
        n_switches=_size(p),
        n_hosts=max(2, _size(p) * _hps(p)),
        extra_links=_size(p) // 2,
        seed=int(p.get("seed", 0)),
    ),
    "fat-tree-3tier": lambda p: build_three_tier_fat_tree(
        int(p.get("k", 4)), hosts_per_edge=p.get("hosts_per_edge")
    ),
}


def build_named_topology(kind: str, params: Params) -> Network:
    """Build the topology ``kind`` (a :data:`NAMED_TOPOLOGIES` key) from ``params``."""
    return NAMED_TOPOLOGIES[kind](params)
