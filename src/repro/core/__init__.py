"""The paper's contribution: the Berkeley network mapping algorithm.

Two implementations are provided, mirroring the paper's presentation:

- :mod:`~repro.core.labeled` — the *simplified* algorithm of Section 3.1,
  exactly as in the pseudo-code: EXPLORE to a fixed depth, then MERGE labels
  to a fixed point, then PRUNE. Vertices are never merged, only re-labeled;
  the map is the quotient ``M / L``. This is the version the proof is about.
- :mod:`~repro.core.mapper` — the *actual* algorithm after the Section 3.3
  modifications: merging interleaved with exploration, vertex objects merged
  via a mergelist (:mod:`~repro.core.model_graph`, the deduction engine the
  partial-map merger shares), probe-order heuristics. This is the version
  the empirical study (Sections 5.1-5.3) measures.

Both observe the network only through a
:class:`~repro.simulator.probes.ProbeService`.
"""

from repro.core.concurrent_mapping import run_concurrent_mappers
from repro.core.mapper import BerkeleyMapper, MapResult, MappingError
from repro.core.labeled import LabeledMapper, LabeledResult
from repro.core.planner import ProbePlanner, PortPlan

__all__ = [
    "BerkeleyMapper",
    "LabeledMapper",
    "LabeledResult",
    "MapResult",
    "MappingError",
    "PortPlan",
    "ProbePlanner",
    "run_concurrent_mappers",
]
