"""Topology families the mapper tournament sweeps.

Each family is a deterministic generator call — the same five shapes the
paper's evaluation and the scale benchmarks use: the measured NOW system
(Figure 5), an incomplete fat tree, a ring, a regular torus, and a random
SAN. The random family is pinned to seed 5 because the committed
``benchmarks/BENCH_tournament.json`` is; the seed is not special. Every
registered algorithm's ``map()`` matches the core on seeds 0-39 of that
generator, 40 of 40 — including the 33 seeds with a host-free dead end
(``F`` non-empty; seed 5 is one of the seven without), where the
breadth-first mappers' native ``run()`` result keeps ``F`` and differs
from the core by exactly that. Loopback identification (Myricom X-sweeps,
spanning-tree confirmation probes) mis-merges on none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.topology.model import Network

__all__ = ["Family", "FAMILIES", "family_names", "get_family", "quick_family_names"]


@dataclass(frozen=True)
class Family:
    """One tournament column: a topology plus how to map it."""

    name: str
    summary: str
    build: Callable[[], Network]
    #: Host the mapper runs on; ``None`` -> first host in sorted order.
    mapper_host: str | None = None
    #: Fixed exploration depth; ``None`` -> the proven Q+D+1.
    search_depth: int | None = None
    #: Included in the CI ``--quick`` grid.
    quick: bool = True


def _now() -> Network:
    from repro.topology.generators import build_full_now

    return build_full_now()


def _fat_tree() -> Network:
    from repro.topology.generators import build_fat_tree

    return build_fat_tree(n_leaves=8, hosts_per_leaf=2)


def _ring() -> Network:
    from repro.topology.generators import build_ring

    return build_ring(8)


def _torus() -> Network:
    from repro.topology.generators import build_torus

    return build_torus(3, 3)


def _random() -> Network:
    from repro.topology.generators import random_san

    return random_san(n_switches=10, n_hosts=10, extra_links=3, seed=5)


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "now",
            "the full measured C+A+B system (Figure 5)",
            _now,
            mapper_host="C-svc",
            quick=False,
        ),
        Family("fat-tree", "incomplete fat tree, 8 leaves x 2 hosts", _fat_tree),
        Family("ring", "8-switch ring, one host each", _ring),
        Family("torus", "3x3 torus, one host each", _torus),
        Family("random", "random SAN, 10 switches / 10 hosts, seed 5", _random),
    )
}


def family_names() -> list[str]:
    return sorted(FAMILIES)


def quick_family_names() -> list[str]:
    return sorted(name for name, f in FAMILIES.items() if f.quick)


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(family_names())
        raise ValueError(f"unknown family {name!r} (known: {known})") from None
