"""Route tables are pinned: same routes, same turns, same wires, same draws.

``tests/goldens/route_tables_digest.json`` was captured by this module's
:func:`compute_digests` run against the tree *before* a routing rewrite:
the first seven fabrics at the commit before the channel table landed
(PR 17's parent), the ``-mapped`` / ``host-host-island`` /
``unattached-host`` entries and the served-document digest at the commit
before the routing layer learned that hosts are leaves (PR 21's parent).
The served-document digest alone was regenerated when the document went
to version 3 (one tail table per generation, PR 22): the format changed,
the routes did not — every table digest stayed byte-identical, and
``tests/service/test_codec_reference.py`` decodes the version-2 and the
version-3 document of each fabric here to equal tables. It was
regenerated once more, alone, when the document went to version 4 (each
chain once, each tail as chain + last channel, one head per table, no
turns): again every table digest stayed byte-identical, and the same
suite decodes the version-4 document to the same tables and to the
compiled generation's own numbering.
Each digest covers every route of one ``compile_route_tables`` call —
sorted ``(src, dst, turns, channel endpoints)`` — so a change to path
selection, to the wire-choice rule among parallel cables or to the order
the seeded RNG is drawn in moves it. To regenerate (only when a routing
change is *meant*)::

    PYTHONPATH=src python tests/routing/test_route_tables_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.remapper import map_cycle, route_cycle
from repro.routing.compile_routes import compile_route_tables
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.service.serialize import route_tables_to_dict
from tests.topology.reference_builder import NetworkBuilder
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


def host_host_island():
    """Two switches with a host each, beside an ``h2``—``h3`` cable: the
    island's two hosts route to each other without any switch."""
    b = NetworkBuilder()
    b.switches("s0", "s1")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s1", port=0)
    b.link("s0", "s1", port_a=3, port_b=5)
    b.link("h2", "h3", port_a=0, port_b=0)
    return b.build(validate=False)  # outside the model; routing must cope


def unattached_host():
    """A three-switch line with three hosts, and ``h3`` plugged in nowhere."""
    b = NetworkBuilder()
    b.switches("s0", "s1", "s2")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s1", port=0)
    b.attach("h2", "s2", port=0)
    b.link("s0", "s1", port_a=2, port_b=4)
    b.link("s1", "s2", port_a=6, port_b=1)
    return b.build(validate=False)  # outside the model; routing must cope


def _named(kind: str, **params):
    return lambda: build_named_topology(kind, params)


def _mapped(kind: str, **params):
    """What a cycle really routes: the ``map_cycle`` result (``switch-N``
    names, offset ports), mapped from the first host in sorted order."""

    def build():
        net = build_named_topology(kind, params)
        return map_cycle(net, sorted(net.hosts)[0])[0].network

    return build


FABRICS = {
    "now-full": _named("now-full"),
    "now-c": _named("now-c"),
    "fat-tree-3tier-k4": _named("fat-tree-3tier", k=4),
    "random-10-seed0": _named("random", size=10, seed=0),
    "random-10-seed3": _named("random", size=10, seed=3),
    "random-10-seed5": _named("random", size=10, seed=5),
    "parallel-cables": parallel_cable_fabric,
    "now-full-mapped": _mapped("now-full"),
    "fat-tree-3tier-k4-mapped": _mapped("fat-tree-3tier", k=4),
    "host-host-island": host_host_island,
    "unattached-host": unattached_host,
}

#: Golden key of the served document: ``json.dumps`` of
#: ``route_tables_to_dict`` of one ``route_cycle`` on the mapped full NOW,
#: so table order, route order and channel numbering are pinned bytewise.
SERVED_DOCUMENT = "served-document:now-full-mapped"

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
            compile_route_tables(net, paths, seed=seed)
        )
        for seed in COMPILE_SEEDS
    }


def served_document_digest() -> str:
    tables = route_cycle(FABRICS["now-full-mapped"]())
    return hashlib.sha256(
        json.dumps(route_tables_to_dict(tables)).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_route_tables_match_the_pinned_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert compute_digests(name) == golden[name]


def test_served_document_matches_the_pinned_bytes():
    golden = json.loads(GOLDEN.read_text())
    assert served_document_digest() == golden[SERVED_DOCUMENT]


def test_golden_covers_exactly_the_pinned_fabrics():
    golden = json.loads(GOLDEN.read_text())
    assert isinstance(golden.pop(SERVED_DOCUMENT), str)
    assert sorted(golden) == sorted(FABRICS)
    for name, by_seed in golden.items():
        first, second = (by_seed[str(seed)] for seed in COMPILE_SEEDS)
        assert (first != second) == (name in SEED_SENSITIVE), name


if __name__ == "__main__":
    digests: dict = {name: compute_digests(name) for name in sorted(FABRICS)}
    digests[SERVED_DOCUMENT] = served_document_digest()
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
