"""Route tables are pinned: same routes, same turns, same wires, same draws.

``tests/goldens/route_tables_digest.json`` was captured at the commit
before the channel table landed (PR 17's parent), by this module's
:func:`compute_digests` run against that tree. Each digest covers every
route of one ``compile_route_tables`` call — sorted ``(src, dst, turns,
channel endpoints)`` — so a change to path selection, to the wire-choice
rule among parallel cables or to the order the seeded RNG is drawn in
moves it. To regenerate (only when a routing change is *meant*)::

    PYTHONPATH=src python tests/routing/test_route_tables_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.routing.compile_routes import compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.topology.builder import NetworkBuilder
from repro.topology.generators import build_named_topology

GOLDEN = Path(__file__).parent.parent / "goldens" / "route_tables_digest.json"
COMPILE_SEEDS = (0, 11)


def parallel_cable_fabric():
    """Three switches in a line: two cables s0=s1, three cables s1≡s2."""
    b = NetworkBuilder()
    b.switches("s0", "s1", "s2")
    b.hosts("h0", "h1", "h2", "h3", "h4")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=1)
    b.attach("h2", "s1", port=0)
    b.attach("h3", "s2", port=0)
    b.attach("h4", "s2", port=1)
    b.link("s0", "s1", port_a=4, port_b=2)
    b.link("s0", "s1", port_a=6, port_b=1)
    b.link("s1", "s2", port_a=5, port_b=7)
    b.link("s1", "s2", port_a=3, port_b=4)
    b.link("s1", "s2", port_a=7, port_b=2)
    return b.build()


def _named(kind: str, **params):
    return lambda: build_named_topology(kind, params)


FABRICS = {
    "now-full": _named("now-full"),
    "now-c": _named("now-c"),
    "fat-tree-3tier-k4": _named("fat-tree-3tier", k=4),
    "random-10-seed0": _named("random", size=10, seed=0),
    "random-10-seed3": _named("random", size=10, seed=3),
    "random-10-seed5": _named("random", size=10, seed=5),
    "parallel-cables": parallel_cable_fabric,
}

#: Fabrics where the seeded draw among parallel cables matters: the two
#: compile seeds must disagree there (that is what pins the draw order)
#: and agree everywhere else.
SEED_SENSITIVE = {"random-10-seed0", "random-10-seed3", "parallel-cables"}


def tables_digest(tables) -> str:
    rows = sorted(
        [
            route.src,
            route.dst,
            list(route.turns),
            [
                [t.src.node, t.src.port, t.dst.node, t.dst.port]
                for t in route.traversals
            ],
        ]
        for table in tables.values()
        for route in table.routes.values()
    )
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()
    ).hexdigest()


def compute_digests(name: str) -> dict[str, str]:
    net = FABRICS[name]()
    orientation = orient_updown(net)
    paths = all_pairs_updown_paths(net, orientation)
    return {
        str(seed): tables_digest(
            compile_route_tables(net, paths, orientation=orientation, seed=seed)
        )
        for seed in COMPILE_SEEDS
    }


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_route_tables_match_the_pinned_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert compute_digests(name) == golden[name]


def test_golden_covers_exactly_the_pinned_fabrics():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(FABRICS)
    for name, by_seed in golden.items():
        first, second = (by_seed[str(seed)] for seed in COMPILE_SEEDS)
        assert (first != second) == (name in SEED_SENSITIVE), name


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: compute_digests(name) for name in sorted(FABRICS)}, indent=1)
        + "\n"
    )
