"""Topology families the mapper tournament sweeps.

Each family is a topology spec that
:func:`repro.topology.generators.build_topology` builds — the same five
shapes the paper's evaluation and the scale benchmarks use: the measured
NOW system (Figure 5), an incomplete fat tree, a ring, a regular torus,
and a random SAN. The random family is pinned to seed 5 because the committed
``benchmarks/BENCH_tournament.json`` is; the seed is not special. Every
registered algorithm's ``map()`` matches the core on seeds 0-39 of that
generator, 40 of 40 — including the 33 seeds with a host-free dead end
(``F`` non-empty; seed 5 is one of the seven without), where the
breadth-first mappers explore ``F`` and their ``map()`` prunes it.
Loopback identification (Myricom X-sweeps,
spanning-tree confirmation probes) mis-merges on none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["Family", "FAMILIES", "family_names", "get_family", "quick_family_names"]


@dataclass(frozen=True)
class Family:
    """One tournament column: a topology spec (see
    :mod:`repro.topology.generators.named`), mapped at the proven Q+D+1."""

    name: str
    summary: str
    spec: Mapping[str, Any]
    #: Included in the CI ``--quick`` grid.
    quick: bool = True


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "now",
            "the full measured C+A+B system (Figure 5)",
            {"kind": "now-full", "mapper": "C-svc"},
            quick=False,
        ),
        Family(
            "fat-tree",
            "incomplete fat tree, 8 leaves x 2 hosts",
            {"kind": "fat-tree", "n_leaves": 8, "hosts_per_leaf": 2},
        ),
        Family("ring", "8-switch ring, one host each", {"kind": "ring", "size": 8}),
        Family("torus", "3x3 torus, one host each", {"kind": "torus", "size": 3}),
        Family(
            "random",
            "random SAN, 10 switches / 10 hosts, seed 5",
            {"kind": "random", "n_switches": 10, "n_hosts": 10, "extra_links": 3, "seed": 5},
        ),
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
