"""The pure-walk probe service: every probe re-walked, no trie, no hints.

This is what ``QuiescentProbeService(use_cache=False)`` was before the
option left the production constructor: a subclass overriding exactly the
evaluation methods with the stateless :func:`evaluate_route` /
:func:`route_touches` bodies. It draws from the fault RNG at the same
points as the cached service, so records are byte-comparable. Inject it
through the ``service_cls=`` seam of ``build_service_stack``; it is the
oracle of ``tests/property/test_eval_cache_properties.py``,
``test_batch_equivalence.py`` and ``tests/core/test_instrumentation.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.simulator.path_eval import (
    PathResult,
    PathStatus,
    ProbeInfo,
    evaluate_route,
    route_touches,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import Turns, switch_probe_turns


class PureWalkProbeService(QuiescentProbeService):
    """``QuiescentProbeService`` with the evaluator bypassed."""

    def _probe_info(self, turns: Turns) -> ProbeInfo:
        path = evaluate_route(self.net, self.mapper, turns)
        blocked = (
            self.collision.blocked_at(path.traversals)
            if path.status is PathStatus.DELIVERED
            else None
        )
        return ProbeInfo(
            path.status, path.hops, path.delivered_to, blocked, tuple(path.traversals)
        )

    def _loopback_info(self, turns: Turns) -> ProbeInfo:
        return self._probe_info(switch_probe_turns(turns, limit=self._turn_limit))

    def _path(self, turns: Turns) -> PathResult:
        return evaluate_route(self.net, self.mapper, turns)

    def warm_siblings(self, prefix: Turns, turns: Iterable[int]) -> None:
        """Nothing to prime."""

    def route_crosses(self, turns: Turns, endpoints) -> bool:
        return route_touches(self.net, self.mapper, tuple(turns), endpoints)

    @property
    def eval_cache_stats(self) -> None:
        """No cache, no counters."""
        return None
