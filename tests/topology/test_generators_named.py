"""Topologies by name: the kind table behind ``san-map generate``."""

import pytest

from repro.topology.generators import NAMED_TOPOLOGIES, build_named_topology


@pytest.mark.parametrize("kind", NAMED_TOPOLOGIES)
def test_every_kind_builds_from_its_defaults(kind):
    net = build_named_topology(kind, {})
    assert net.n_hosts >= 2 and net.n_switches >= 1
