"""The pure-walk probe service: every probe re-walked, no trie.

This is what ``QuiescentProbeService(use_cache=False)`` was before the
option left the production constructor: a subclass overriding exactly the
evaluation methods with the stateless :func:`evaluate_route` /
:func:`route_touches` bodies. It draws from the fault RNG at the same
points as the cached service, so records are byte-comparable. Construct
it in place of the service; it is the oracle of
``tests/property/test_eval_cache_properties.py``. It also answers the two
Section 6 kinds from the whole :class:`PathResult` of the walked string
(the early host's prefix from the failing turn, the bounce switch from
the node list), so the cached kinds' index arithmetic is held to the walk.
"""

from __future__ import annotations

from typing import Iterable

from repro.simulator.path_eval import (
    PathStatus,
    ProbeInfo,
    evaluate_route,
)
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import ProbeContext
from repro.simulator.turns import Turns, reverse_turns, validate_turns
from repro.topology.model import HOST_PORT, Network, PortRef


def switch_probe_turns(turns: Iterable[int]) -> Turns:
    """The loopback string ``a1...ak 0 -ak...-a1`` of the switch-probe:
    what the cached loopback reader answers without building it."""
    fwd = tuple(turns)
    return fwd + (0,) + reverse_turns(fwd)


def route_touches(
    net: Network,
    h0: str,
    turns: Iterable[int],
    endpoints: frozenset[PortRef] | set[PortRef],
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


class _WalkedProbeInfo(ProbeInfo):
    """A :class:`ProbeInfo` over an explicit traversal tuple: the pure
    walk's answer, which has no trie node to read it from."""

    __slots__ = ()

    def __init__(self, status, hops, delivered_to, blocked, traversals) -> None:
        self.status = status
        self.hops = hops
        self.delivered_to = delivered_to
        self.blocked = blocked
        self._traversals = traversals
        self._node = 0


class PureWalkProbeService(QuiescentProbeService):
    """``QuiescentProbeService`` with the evaluator bypassed."""

    def _probe_info(self, turns: Turns) -> ProbeInfo:
        path = evaluate_route(self.net, self.mapper, turns)
        blocked = (
            self.collision.blocked_at(path.traversals)
            if path.status is PathStatus.DELIVERED
            else None
        )
        return _WalkedProbeInfo(
            path.status, path.hops, path.delivered_to, blocked, tuple(path.traversals)
        )

    def _loopback_info(self, turns: Turns) -> ProbeInfo:
        return self._probe_info(
            switch_probe_turns(validate_turns(turns, limit=self._turn_limit))
        )

    def route_crosses(self, turns: Turns, endpoints) -> bool:
        return route_touches(self.net, self.mapper, tuple(turns), endpoints)

    @property
    def eval_cache_stats(self) -> None:
        """No cache, no counters."""
        return None

    def _eval_host_any(self, ctx: ProbeContext) -> None:
        """The early-host kind off the whole pure walk: the host is the
        walk's last node, the prefix ends at the turn the walk failed on."""
        path = evaluate_route(self.net, self.mapper, ctx.turns)
        ctx.info = _WalkedProbeInfo(
            path.status, path.hops, path.delivered_to, None, tuple(path.traversals)
        )
        if path.status is PathStatus.DELIVERED:
            host, prefix = path.delivered_to, ctx.turns
        elif path.status is PathStatus.HIT_HOST_TOO_SOON:
            host = path.nodes[-1]
            assert path.failed_at_turn is not None
            prefix = ctx.turns[: path.failed_at_turn]
        else:
            return
        if (
            self.collision.blocked_at(path.traversals) is None
            and not self.faults.lost()
        ):
            ctx.hit = True
            ctx.response = host
            ctx.payload = (host, prefix)

    def _eval_switch_id(self, ctx: ProbeContext) -> None:
        """The switch-identity kind by walking the whole loopback string:
        the identity is the node the bounce turn leaves."""
        loop = switch_probe_turns(ctx.turns)
        path = evaluate_route(self.net, self.mapper, loop)
        ctx.info = _WalkedProbeInfo(
            path.status, path.hops, path.delivered_to, None, tuple(path.traversals)
        )
        if (
            path.status is PathStatus.DELIVERED
            and self.collision.blocked_at(path.traversals) is None
            and not self.faults.lost()
        ):
            ctx.hit = True
            ctx.response = path.nodes[len(ctx.turns) + 1]
