"""The paper's contribution: the Berkeley network mapping algorithm.

:mod:`~repro.core.mapper` is the *actual* algorithm after the Section 3.3
modifications: merging interleaved with exploration, vertex objects merged
via a mergelist (:mod:`~repro.core.model_graph`, the deduction engine the
partial-map merger shares), probe-order heuristics. This is the version the
empirical study (Sections 5.1-5.3) measures. The *simplified* algorithm of
Section 3.1 — the version the proof is about — is the test oracle
``tests/core/reference_labeled.py``.

Every mapper observes the network only through a
:class:`~repro.simulator.probes.ProbeService`.
"""

from repro.core.mapper import BerkeleyMapper, MapResult, MappingError
from repro.core.planner import ProbePlanner, PortPlan

__all__ = [
    "BerkeleyMapper",
    "MapResult",
    "MappingError",
    "PortPlan",
    "ProbePlanner",
]
