"""Topologies by name: the one kind table behind ``san-map generate``,
tenant specs, chaos cells and tournament families."""

import pytest

from repro.topology.generators import (
    NAMED_TOPOLOGIES,
    build_named_topology,
    build_topology,
    shrink_candidates,
)
from repro.topology.model import TopologyError
from repro.topology.serialize import network_to_dict


@pytest.mark.parametrize("kind", NAMED_TOPOLOGIES)
def test_every_kind_builds_from_its_defaults(kind):
    net = build_named_topology(kind, {})
    assert net.n_hosts >= 2 and net.n_switches >= 1


def test_mapper_defaults_to_first_sorted_host_and_may_be_named():
    net, mapper = build_topology({"kind": "ring", "size": 6})
    assert mapper == sorted(net.hosts)[0]
    _, mapper = build_topology({"kind": "ring", "size": 6, "mapper": "ring-n004"})
    assert mapper == "ring-n004"


def test_unknown_kind_and_missing_mapper_are_rejected():
    with pytest.raises(TopologyError, match="unknown topology kind"):
        build_topology({"kind": "klein-bottle"})
    with pytest.raises(TopologyError, match="mapper host"):
        build_topology({"kind": "ring", "mapper": "ghost"})
    assert shrink_candidates({"kind": "klein-bottle"}) == []
    assert shrink_candidates({"kind": ["ring"]}) == []


@pytest.mark.parametrize(
    "spec",
    [{"kind": "ring"}, {"kind": "torus", "size": 3}, {"kind": "random", "seed": 2}],
)
def test_a_parameter_left_at_its_default_still_shrinks(spec):
    """The old shrinker read ``spec.get(key, 0)`` and so proposed nothing
    for a parameter the spec left at its default."""
    assert shrink_candidates(spec)


def _size(net):
    return (net.n_switches, net.n_hosts, net.n_wires)


@pytest.mark.parametrize("kind", NAMED_TOPOLOGIES)
def test_every_candidate_builds_strictly_smaller(kind):
    """Fewer switches, or the same switches and fewer hosts; ``extra_links``
    of ``random`` lowers only the wire count, the last tie-breaker."""
    net, _ = build_topology({"kind": kind})
    for cand in shrink_candidates({"kind": kind}):
        smaller, _ = build_topology(cand)
        assert _size(smaller) < _size(net), cand


def test_random_hosts_per_switch_candidate_is_a_no_op_with_explicit_hosts():
    """``random`` reads ``hosts_per_switch`` only to derive ``n_hosts``:
    with ``n_hosts`` explicit, its candidate builds the same fabric (the
    one exception ``shrink_candidates`` documents)."""
    spec = {"kind": "random", "n_hosts": 4, "hosts_per_switch": 2}
    net, _ = build_topology(spec)
    cands = [c for c in shrink_candidates(spec) if c["hosts_per_switch"] == 1]
    assert cands == [{**spec, "hosts_per_switch": 1}]
    assert network_to_dict(build_topology(cands[0])[0]) == network_to_dict(net)


def test_candidates_start_from_the_resolved_value():
    assert [c["rows"] for c in shrink_candidates({"kind": "mesh"})[:2]] == [2, 3]
    assert shrink_candidates({"kind": "ring", "hosts_per_switch": 3})[-2:] == [
        {"kind": "ring", "hosts_per_switch": 1},
        {"kind": "ring", "hosts_per_switch": 2},
    ]
