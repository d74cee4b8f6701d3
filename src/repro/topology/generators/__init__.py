"""Topology generators.

- :mod:`~repro.topology.generators.now` — the Berkeley NOW subclusters A, B,
  C with the paper's exact component counts and irregularities, plus the
  composition used for the C+A and C+A+B experiments.
- :mod:`~repro.topology.generators.fattree` — parametric (incomplete) fat
  trees in the NOW style.
- :mod:`~repro.topology.generators.regular` — rings, chains, meshes, tori,
  hypercubes, stars: the "static, well-defined" topologies the introduction
  contrasts with.
- :mod:`~repro.topology.generators.random_topo` — seeded random connected
  SANs for property-based testing.
- :mod:`~repro.topology.generators.named` — the above by name, from a flat
  parameter mapping (``san-map generate``, map-server tenant specs).
"""

from repro.topology.generators.now import (
    NOW_EXPECTED_COMPONENTS,
    build_full_now,
    build_subcluster,
    combine_subclusters,
)
from repro.topology.generators.fattree import (
    build_fat_tree,
    build_three_tier_fat_tree,
    three_tier_counts,
)
from repro.topology.generators.regular import (
    build_chain,
    build_hypercube,
    build_mesh,
    build_ring,
    build_star,
    build_torus,
)
from repro.topology.generators.random_topo import random_san
from repro.topology.generators.named import NAMED_TOPOLOGIES, build_named_topology

__all__ = [
    "NAMED_TOPOLOGIES",
    "NOW_EXPECTED_COMPONENTS",
    "build_chain",
    "build_fat_tree",
    "build_full_now",
    "build_hypercube",
    "build_mesh",
    "build_named_topology",
    "build_ring",
    "build_star",
    "build_subcluster",
    "build_three_tier_fat_tree",
    "build_torus",
    "combine_subclusters",
    "random_san",
    "three_tier_counts",
]
