"""The pure-walk probe service: every probe re-walked, no trie.

This is what ``QuiescentProbeService(use_cache=False)`` was before the
option left the production constructor: a subclass overriding exactly the
evaluation methods with the stateless :func:`evaluate_route` /
:func:`route_touches` bodies. It draws from the fault RNG at the same
points as the cached service, so records are byte-comparable. Inject it
through the ``service_cls=`` seam of ``build_service_stack``; it is the
oracle of ``tests/property/test_eval_cache_properties.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.simulator.path_eval import (
    PathResult,
    PathStatus,
    ProbeInfo,
    evaluate_route,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import Turns, switch_probe_turns
from repro.topology.delta import Endpoint
from repro.topology.model import HOST_PORT, Network


def route_touches(
    net: Network,
    h0: str,
    turns: Iterable[int],
    endpoints: frozenset[Endpoint] | set[Endpoint],
) -> bool:
    """Whether the message path of ``turns`` touches any wire end given.

    The pure-function form of
    :meth:`~repro.simulator.path_eval.IncrementalPathEvaluator.touches`:
    every wire end the walk crosses, plus the end its failure (if any) is
    pinned to — the computed output port of a NO_SUCH_WIRE verdict, the
    source's port 0 of a NOT_ATTACHED one.
    """
    seq = tuple(turns)
    path = evaluate_route(net, h0, seq)
    for tr in path.traversals:
        if (tr.src.node, tr.src.port) in endpoints:
            return True
        if (tr.dst.node, tr.dst.port) in endpoints:
            return True
    if path.status is PathStatus.NOT_ATTACHED:
        return (h0, HOST_PORT) in endpoints
    if path.status is PathStatus.NO_SUCH_WIRE:
        at = path.traversals[-1].dst
        assert path.failed_at_turn is not None
        return (at.node, at.port + seq[path.failed_at_turn]) in endpoints
    return False


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

    def route_crosses(self, turns: Turns, endpoints) -> bool:
        return route_touches(self.net, self.mapper, tuple(turns), endpoints)

    @property
    def eval_cache_stats(self) -> None:
        """No cache, no counters."""
        return None
