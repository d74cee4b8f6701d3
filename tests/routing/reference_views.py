"""Views of a route generation and of a path table that only tests read.

``RouteGeneration`` stores each chain once and each tail as (chain, last
channel); the codec, the deadlock check and the route views read those.
``rows`` (every tail's channel numbers), ``tails`` (every tail as the
shared ``Tail`` object) and ``outs`` (every tail's first out port) spell
the tails out in number order, for the oracles that compare a generation
with the parent compiler's and for the version-3 reference encoder.

``RoutingPaths`` is read by the compiler through ``in_tree`` and
``node_paths``; ``distance`` and ``node_path`` are the one-pair questions
the path tests ask of it. ``orient_updown`` picks its root inside one
pass; ``pick_root`` asks for the root alone.
"""

from __future__ import annotations

from repro.routing.compile_routes import RouteGeneration, Tail, _spelled
from repro.routing.paths import _INF, RoutingPaths
from repro.routing.updown import _pick_root
from repro.topology.analysis import _Fabric
from repro.topology.model import Network


def rows(generation: RouteGeneration) -> list[tuple[int, ...]]:
    """Every tail's channel numbers, by tail number."""
    return [
        _spelled(generation.channels, generation.chains, pair)[0]
        for pair in generation.pairs
    ]


def tails(generation: RouteGeneration) -> list[Tail]:
    """Every tail as the :data:`Tail` object its routes share."""
    return [generation._tails[number] for number in range(len(generation.pairs))]


def outs(generation: RouteGeneration) -> list[int | None]:
    """Every tail's first out port (``None`` for the empty tail), by tail
    number."""
    return [out for out, _ in generation.turn_keys]


def distance(paths: RoutingPaths, src: str, dst: str) -> int | None:
    """Length of the shortest compliant path, or None if unreachable."""
    row, prefix = paths._entry(src)
    if src == dst:
        return 0
    best = min(paths.dist[row, column] for column in paths._columns(dst))
    return None if best >= _INF else int(best) + len(prefix) - 1


def node_path(paths: RoutingPaths, src: str, dst: str) -> list[str] | None:
    """The node sequence of one shortest compliant path."""
    for _, _, path in paths.node_paths([src], [dst]):
        return path
    return None


def pick_root(net: Network, *, ignore_utility: bool = True) -> str:
    """The root ``orient_updown`` would pick (see ``_pick_root``)."""
    fab = _Fabric.of(net, sorted(net.nodes))
    return _pick_root(net, fab, fab.distances, ignore_utility)
