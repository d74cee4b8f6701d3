"""The parent's topology vocabularies, kept verbatim as the oracle for the
one registry in :mod:`repro.topology.generators.named`.

Before the registry, a fabric was named in four places that disagreed on
defaults: ``san-map generate`` / tenant specs (``NAMED_TOPOLOGIES``), the
chaos runner's ``build_topology`` if-chain, the shrinker's
``_topology_candidates`` and the tournament's zero-argument family
closures. ``test_named_differential.py`` checks that the registry builds
``network_to_dict``-identical fabrics wherever a spec is explicit, and
shrinks an all-explicit spec exactly as the old shrinker did.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.chaos.scenario import ScenarioError
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


def build_topology(spec: Mapping[str, Any]) -> tuple[Network, str]:
    """Materialize a topology spec; returns ``(network, mapper_host)``.

    Specs are plain dicts so cells (and shrunk regression artifacts) are
    fully serializable: ``{"kind": "ring", "size": 6}``. Supported kinds:
    ``ring``, ``chain``, ``mesh``, ``torus``, ``hypercube``, ``star``,
    ``random``, ``subcluster``. ``mapper`` optionally names the mapping
    host (default: first host in sorted order).
    """
    from repro.topology import generators as gen

    kind = spec.get("kind")
    hps = int(spec.get("hosts_per_switch", 1))
    if kind == "ring":
        net = gen.build_ring(int(spec.get("size", 4)), hosts_per_switch=hps)
    elif kind == "chain":
        net = gen.build_chain(int(spec.get("size", 3)), hosts_per_switch=hps)
    elif kind == "mesh":
        net = gen.build_mesh(
            int(spec.get("rows", spec.get("size", 3))),
            int(spec.get("cols", spec.get("size", 3))),
            hosts_per_switch=hps,
        )
    elif kind == "torus":
        net = gen.build_torus(
            int(spec.get("rows", spec.get("size", 3))),
            int(spec.get("cols", spec.get("size", 3))),
            hosts_per_switch=hps,
        )
    elif kind == "hypercube":
        net = gen.build_hypercube(int(spec.get("size", 3)), hosts_per_switch=hps)
    elif kind == "star":
        net = gen.build_star(int(spec.get("size", 4)), hosts_per_switch=hps)
    elif kind == "random":
        net = gen.random_san(
            n_switches=int(spec.get("n_switches", 4)),
            n_hosts=int(spec.get("n_hosts", 4)),
            extra_links=int(spec.get("extra_links", 1)),
            parallel_link_prob=float(spec.get("parallel_link_prob", 0.0)),
            pendant_switches=int(spec.get("pendant_switches", 0)),
            seed=int(spec.get("seed", 0)),
        )
    elif kind == "subcluster":
        net = gen.build_subcluster(str(spec.get("which", "C")))
    else:
        raise ScenarioError(f"unknown topology kind {kind!r}")
    mapper = spec.get("mapper") or sorted(net.hosts)[0]
    if mapper not in net.hosts:
        raise ScenarioError(f"mapper host {mapper!r} not in topology")
    return net, mapper


def _topology_candidates(spec: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Strictly smaller versions of a topology spec, most aggressive first."""
    out: list[dict[str, Any]] = []
    kind = spec.get("kind")

    def smaller(key: str, floor: int) -> None:
        val = int(spec.get(key, 0))
        for nxt in (floor, (val + floor) // 2, val - 1):
            if floor <= nxt < val:
                cand = dict(spec)
                cand[key] = nxt
                if cand not in out:
                    out.append(cand)

    if kind in ("ring", "star"):
        smaller("size", 3)
    elif kind == "chain":
        smaller("size", 2)
    elif kind in ("mesh", "torus"):
        smaller("rows", 2)
        smaller("cols", 2)
    elif kind == "hypercube":
        smaller("size", 1)
    elif kind == "random":
        smaller("n_switches", 1)
        smaller("n_hosts", 2)
        smaller("extra_links", 0)
    if int(spec.get("hosts_per_switch", 1)) > 1:
        smaller("hosts_per_switch", 1)
    return out


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


#: family name -> (builder, mapper host or None), as the parent's ``FAMILIES``.
REFERENCE_FAMILIES: dict[str, tuple[Callable[[], Network], str | None]] = {
    "now": (_now, "C-svc"),
    "fat-tree": (_fat_tree, None),
    "ring": (_ring, None),
    "torus": (_torus, None),
    "random": (_random, None),
}
