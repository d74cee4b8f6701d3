"""The Myrinet-like network substrate.

Everything the mapping algorithms can observe in-band is produced here:

- :mod:`~repro.simulator.turns` — turn strings over the alphabet −7…+7 and
  the probe-string algebra (switch-probe construction, reversal);
- :mod:`~repro.simulator.path_eval` — message-path evaluation per Section
  2.2 with the four failure modes;
- :mod:`~repro.simulator.collision` — the two probe-failure models of
  Section 2.3.1 (circuit and cut-through);
- :mod:`~repro.simulator.probes` — the probe service interface and
  accounting;
- :mod:`~repro.simulator.quiescent` — the quiescent-network probe service
  (the setting of the correctness proof) with a calibrated timing model;
- :mod:`~repro.simulator.stack` — composable middleware layers over the
  quiescent core (stats, caps, chaos, interference, trace bus) and the
  :func:`~repro.simulator.stack.build_service_stack` factory;
- :mod:`~repro.simulator.timing` — hardware constants and the cost model;
- :mod:`~repro.simulator.occupancy` — directed-channel occupancy for
  concurrent worms (election mode, cross-traffic);
- :mod:`~repro.simulator.traffic` — background cross-traffic generation;
- :mod:`~repro.simulator.faults` — probe loss / corruption / dead links;
- :mod:`~repro.simulator.daemons` — which hosts run mapper daemons.
"""

from repro.simulator.turns import (
    Turns,
    reverse_turns,
    validate_turns,
)
from repro.simulator.path_eval import (
    EvalCacheStats,
    IncrementalPathEvaluator,
    PathStatus,
    PathResult,
    ProbeInfo,
    evaluate_route,
)
from repro.simulator.collision import (
    CircuitModel,
    CollisionModel,
    CutThroughModel,
    PacketModel,
)
from repro.simulator.probes import ProbeKind, ProbeService, ProbeStats
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import (
    CapLayer,
    CountingLayer,
    InterferenceLayer,
    ProbeBudgetExceeded,
    ProbeContext,
    ProbeLayer,
    RetryLayer,
    TraceBusLayer,
    build_service_stack,
)
from repro.simulator.faults import FaultModel

__all__ = [
    "CapLayer",
    "CircuitModel",
    "CollisionModel",
    "CountingLayer",
    "CutThroughModel",
    "EvalCacheStats",
    "FaultModel",
    "InterferenceLayer",
    "IncrementalPathEvaluator",
    "PacketModel",
    "PathResult",
    "PathStatus",
    "ProbeBudgetExceeded",
    "ProbeContext",
    "ProbeInfo",
    "ProbeKind",
    "ProbeLayer",
    "ProbeService",
    "ProbeStats",
    "QuiescentProbeService",
    "RetryLayer",
    "TraceBusLayer",
    "Turns",
    "build_service_stack",
    "reverse_turns",
    "validate_turns",
]
