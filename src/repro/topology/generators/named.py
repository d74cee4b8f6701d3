"""Topologies by name: the one vocabulary of ``san-map generate``,
map-server tenant specs, chaos cells and tournament families.

A **spec** is a plain dict ``{"kind": ..., <params>..., "mapper"?: host}``.
Each kind declares, next to its builder, the parameters it reads, each
parameter's single default (a constant, or derived from the parameters
before it) and the floor of every parameter the chaos shrinker may lower.
A spec key the kind does not read, other than ``kind`` and ``mapper``, is
refused (:func:`unread_keys`): a misspelled ``size`` must not build the
default fabric.

==================  =====================================================  ================
kind                parameters (default)                                   shrink floors
==================  =====================================================  ================
``now-a/b/c``       none: the paper's subclusters                          none
``now-full``        none: C+A+B, Figure 5                                  none
``ring``            ``size`` (4), ``hosts_per_switch`` (1)                 size 3, hps 1
``chain``           ``size`` (4), ``hosts_per_switch`` (1)                 size 2, hps 1
``star``            ``size`` (4 leaves), ``hosts_per_switch`` (1)          size 3, hps 1
``hypercube``       ``size`` (4, the dimension), ``hosts_per_switch`` (1)  size 1, hps 1
``mesh``            ``size`` (4), ``rows`` and ``cols`` (``size``),        rows 2, cols 2,
``torus``           ``hosts_per_switch`` (1)                               hps 1
``random``          ``size`` (4), ``hosts_per_switch`` (1), ``seed`` (0),  n_switches 1,
                    ``n_switches`` (``size``), ``n_hosts`` (``max(2,       n_hosts 2,
                    size * hosts_per_switch)``), ``extra_links``           extra_links 0,
                    (``size // 2``), ``parallel_link_prob`` (0),           hps 1
                    ``pendant_switches`` (0)
``fat-tree``        ``n_leaves`` (4), ``hosts_per_leaf`` (2): the NOW-     n_leaves 2,
                    style incomplete fat tree                              hosts_per_leaf 1
``fat-tree-3tier``  ``k`` (4), ``hosts_per_edge`` (``k / 2``)              none
==================  =====================================================  ================

(``hps`` is ``hosts_per_switch``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from repro.topology.generators.fattree import build_fat_tree, build_three_tier_fat_tree
from repro.topology.generators.now import build_full_now, build_subcluster
from repro.topology.generators.random_topo import random_san
from repro.topology.generators.regular import build_chain, build_hypercube, build_mesh
from repro.topology.generators.regular import build_ring, build_star, build_torus
from repro.topology.model import Network, TopologyError

__all__ = ["NAMED_TOPOLOGIES", "TopologyKind", "build_named_topology", "build_topology",
           "shrink_candidates", "unread_keys"]

Params = Mapping[str, Any]
_SIDE = itemgetter("size")
_RANDOM_ARGS = ("n_switches", "n_hosts", "extra_links", "parallel_link_prob",
                "pendant_switches", "seed")


@dataclass(frozen=True)
class TopologyKind:
    """One named fabric: its builder, its parameters' defaults (in
    resolution order) and the floors of the ones the shrinker may lower."""

    build: Callable[[dict[str, Any]], Network]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    floors: Mapping[str, int] = field(default_factory=dict)

    def resolve(self, spec: Params) -> dict[str, Any]:
        """Every parameter this kind reads, from ``spec`` or its default."""
        p: dict[str, Any] = {}
        for key, default in self.defaults.items():
            value = spec.get(key, default(p) if callable(default) else default)
            cast = float if isinstance(default, float) else int
            try:
                p[key] = None if value is None else cast(value)
            except (TypeError, ValueError):
                raise ValueError(f"parameter {key!r}: {value!r} is not {cast.__name__}") from None
        return p


def _regular(builder: Callable[..., Network], floor: int) -> TopologyKind:
    return TopologyKind(
        lambda p: builder(p["size"], hosts_per_switch=p["hosts_per_switch"]),
        {"size": 4, "hosts_per_switch": 1},
        {"size": floor, "hosts_per_switch": 1},
    )


def _grid(builder: Callable[..., Network]) -> TopologyKind:
    return TopologyKind(
        lambda p: builder(p["rows"], p["cols"], hosts_per_switch=p["hosts_per_switch"]),
        {"size": 4, "rows": _SIDE, "cols": _SIDE, "hosts_per_switch": 1},
        {"rows": 2, "cols": 2, "hosts_per_switch": 1},
    )


NAMED_TOPOLOGIES: dict[str, TopologyKind] = {
    "now-a": TopologyKind(lambda p: build_subcluster("A")),
    "now-b": TopologyKind(lambda p: build_subcluster("B")),
    "now-c": TopologyKind(lambda p: build_subcluster("C")),
    "now-full": TopologyKind(lambda p: build_full_now()),
    "ring": _regular(build_ring, 3),
    "chain": _regular(build_chain, 2),
    "star": _regular(build_star, 3),
    "hypercube": _regular(build_hypercube, 1),
    "mesh": _grid(build_mesh),
    "torus": _grid(build_torus),
    "random": TopologyKind(
        lambda p: random_san(**{k: p[k] for k in _RANDOM_ARGS}),
        {"size": 4, "hosts_per_switch": 1, "seed": 0, "n_switches": _SIDE,
         "n_hosts": lambda p: max(2, p["size"] * p["hosts_per_switch"]),
         "extra_links": lambda p: p["size"] // 2, "parallel_link_prob": 0.0,
         "pendant_switches": 0},
        {"n_switches": 1, "n_hosts": 2, "extra_links": 0, "hosts_per_switch": 1},
    ),
    "fat-tree": TopologyKind(
        lambda p: build_fat_tree(n_leaves=p["n_leaves"], hosts_per_leaf=p["hosts_per_leaf"]),
        {"n_leaves": 4, "hosts_per_leaf": 2},
        {"n_leaves": 2, "hosts_per_leaf": 1},
    ),
    "fat-tree-3tier": TopologyKind(
        lambda p: build_three_tier_fat_tree(p["k"], hosts_per_edge=p["hosts_per_edge"]),
        {"k": 4, "hosts_per_edge": None},
    ),
}


def _entry(kind: Any) -> TopologyKind | None:
    # A kind read from JSON may be any value; only a string names a kind.
    return NAMED_TOPOLOGIES.get(kind) if isinstance(kind, str) else None


def build_named_topology(kind: str, params: Params) -> Network:
    """Build the topology ``kind`` (a :data:`NAMED_TOPOLOGIES` key) from ``params``."""
    entry = _entry(kind)
    if entry is None:
        raise TopologyError(f"unknown topology kind {kind!r}")
    return entry.build(entry.resolve(params))


def unread_keys(spec: Params, reads: Iterable[str]) -> list[str]:
    """The keys of ``spec`` outside ``reads``, sorted: what building it
    would silently ignore."""
    return sorted(set(spec).difference(reads))


def build_topology(spec: Params) -> tuple[Network, str]:
    """Materialize a spec; returns ``(network, mapper_host)``.

    ``mapper`` names the mapping host (default: the first host in sorted
    order); a host the fabric lacks, or a key the kind does not read, is a
    :class:`TopologyError`.
    """
    kind = spec.get("kind")
    entry = _entry(kind)
    unread = unread_keys(spec, (*entry.defaults, "kind", "mapper")) if entry else []
    if unread:
        raise TopologyError(f"topology {kind!r} reads no params {unread}")
    net = build_named_topology(kind, spec)
    mapper = spec.get("mapper") or sorted(net.hosts)[0]
    if mapper not in net.hosts:
        raise TopologyError(f"mapper host {mapper!r} not in topology")
    return net, mapper


def shrink_candidates(spec: Params) -> list[dict[str, Any]]:
    """Smaller versions of ``spec``, most aggressive first.

    Each floored parameter, in declaration order, is lowered from the value
    the fabric was built with (explicit or default) to its floor, halfway
    there, and by one. An unknown kind has no candidates. Every candidate
    builds a strictly smaller fabric but one: ``random`` reads
    ``hosts_per_switch`` only to derive ``n_hosts``, so with ``n_hosts``
    explicit its ``hosts_per_switch`` candidates build the same fabric.
    """
    entry = _entry(spec.get("kind"))
    if entry is None:
        return []
    p = entry.resolve(spec)
    out: list[dict[str, Any]] = []
    for key, floor in entry.floors.items():
        for nxt in (floor, (p[key] + floor) // 2, p[key] - 1):
            cand = {**spec, key: nxt}
            if floor <= nxt < p[key] and cand not in out:
                out.append(cand)
    return out
