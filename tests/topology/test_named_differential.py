"""The one topology registry against the four vocabularies it replaced.

``reference_named.py`` keeps the parent's ``NAMED_TOPOLOGIES``, the chaos
runner's ``build_topology``, the shrinker's ``_topology_candidates`` and the
tournament's family closures verbatim. Wherever a spec is explicit, the
registry must build the same fabric (``network_to_dict``-identical, same
mapping host) and, for the kinds the old shrinker knew, propose the same
candidates in the same order.
"""

from __future__ import annotations

import itertools

import pytest

from repro.topology.generators import (
    NAMED_TOPOLOGIES,
    build_named_topology,
    build_topology,
    shrink_candidates,
)
from repro.topology.serialize import network_to_dict
from repro.tournament.families import FAMILIES
from tests.topology import reference_named as ref

GRID = [
    {"size": size, "hosts_per_switch": hps, "seed": seed}
    for size, hps, seed in itertools.product((3, 4, 5), (1, 2), (0, 3))
]

#: Chaos specs with every parameter the old if-chain read spelled out.
CHAOS_SPECS = [
    {"kind": "ring", "size": 6},
    {"kind": "ring", "size": 5, "hosts_per_switch": 2, "mapper": "ring-n004"},
    {"kind": "chain", "size": 3},
    {"kind": "mesh", "rows": 2, "cols": 3, "hosts_per_switch": 2},
    {"kind": "torus", "size": 3},
    {"kind": "torus", "rows": 3, "cols": 4, "hosts_per_switch": 1},
    {"kind": "hypercube", "size": 3},
    {"kind": "star", "size": 4},
    {"kind": "random", "n_switches": 3, "n_hosts": 4, "extra_links": 1, "seed": 2},
    {
        "kind": "random",
        "n_switches": 6,
        "n_hosts": 5,
        "extra_links": 2,
        "parallel_link_prob": 0.5,
        "pendant_switches": 2,
        "hosts_per_switch": 2,
        "seed": 4,
    },
]

#: The kinds the old shrinker had a rule for (it knew no others).
OLD_SHRINK_KINDS = ("ring", "chain", "mesh", "torus", "hypercube", "star", "random")


def _doc(net):
    return network_to_dict(net)


@pytest.mark.parametrize("kind", ref.NAMED_TOPOLOGIES)
def test_generate_vocabulary_builds_identical_fabrics(kind):
    for params in GRID:
        assert _doc(build_named_topology(kind, params)) == _doc(
            ref.NAMED_TOPOLOGIES[kind](params)
        ), params


@pytest.mark.parametrize("spec", CHAOS_SPECS, ids=lambda s: s["kind"])
def test_explicit_chaos_specs_build_identical_fabrics(spec):
    net, mapper = build_topology(spec)
    old_net, old_mapper = ref.build_topology(spec)
    assert mapper == old_mapper
    assert _doc(net) == _doc(old_net)


@pytest.mark.parametrize("name", FAMILIES)
def test_tournament_families_build_identical_fabrics(name):
    build, host = ref.REFERENCE_FAMILIES[name]
    old = build()
    net, mapper = build_topology(FAMILIES[name].spec)
    assert _doc(net) == _doc(old)
    assert mapper == (host or sorted(old.hosts)[0])


def _explicit_shrink_specs():
    for spec in CHAOS_SPECS:
        yield spec
    for kind, params in itertools.product(OLD_SHRINK_KINDS, GRID):
        yield {"kind": kind, **params}


@pytest.mark.parametrize(
    "spec",
    [
        s
        for s in _explicit_shrink_specs()
        if set(NAMED_TOPOLOGIES[s["kind"]].floors) <= set(s)
    ],
    ids=lambda s: "-".join(str(v) for v in s.values()),
)
def test_all_explicit_specs_shrink_as_before(spec):
    assert shrink_candidates(spec) == ref._topology_candidates(spec)


def test_ring6_candidates_are_sizes_3_4_5():
    spec = {"kind": "ring", "size": 6}
    assert [c["size"] for c in shrink_candidates(spec)] == [3, 4, 5]


def test_omitted_keys_take_the_registry_default():
    """Deliberate: a chaos spec that omits a parameter now builds what
    ``san-map generate`` builds, where the old if-chain had its own default."""
    for kind in ("chain", "mesh", "hypercube", "random"):
        net, _ = build_topology({"kind": kind})
        old, _ = ref.build_topology({"kind": kind})
        assert _doc(net) == _doc(build_named_topology(kind, {}))
        assert _doc(net) != _doc(old), kind
