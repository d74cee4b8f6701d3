"""Shared fixtures for the test suite.

Expensive artifacts (the NOW subclusters, their core decompositions, a
full mapping run) are session-scoped: many tests assert different
properties of the same run, so one run feeds them all.
"""

from __future__ import annotations

import pytest

from repro.core.mapper import BerkeleyMapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import core_network, recommended_search_depth
from tests.topology.reference_builder import NetworkBuilder
from repro.topology.generators import build_subcluster


@pytest.fixture()
def tiny_net():
    """One switch, three hosts — the smallest legal network."""
    b = NetworkBuilder()
    b.switch("s0")
    b.hosts("h0", "h1", "h2")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=3)
    b.attach("h2", "s0", port=7)
    return b.build()


@pytest.fixture()
def two_switch_net():
    """Two switches joined by two parallel cables, two hosts each."""
    b = NetworkBuilder()
    b.switches("s0", "s1")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=1)
    b.attach("h2", "s1", port=6)
    b.attach("h3", "s1", port=7)
    b.link("s0", "s1", port_a=4, port_b=2)
    b.link("s0", "s1", port_b=3, port_a=5)
    return b.build()


@pytest.fixture()
def ring_net():
    """Four switches in a ring, one host each — plenty of replicates."""
    b = NetworkBuilder()
    for i in range(4):
        b.switch(f"s{i}")
        b.host(f"h{i}")
        b.attach(f"h{i}", f"s{i}", port=0)
    for i in range(4):
        b.link(f"s{i}", f"s{(i + 1) % 4}")
    return b.build()


@pytest.fixture()
def bridge_net():
    """A core plus a pendant host-free switch chain behind a switch-bridge.

    F = {f0, f1}: the wire s1--f0 is a switch-bridge separating them from
    every host.
    """
    b = NetworkBuilder()
    b.switches("s0", "s1", "f0", "f1")
    b.hosts("h0", "h1")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=1)
    b.link("s0", "s1", port_a=4, port_b=0)
    b.link("s0", "s1", port_a=5, port_b=1)  # parallel pair: not a bridge
    b.link("s1", "f0", port_a=6, port_b=0)  # the switch-bridge
    b.link("f0", "f1", port_a=3, port_b=2)
    return b.build()


@pytest.fixture(scope="session")
def subcluster_c():
    return build_subcluster("C")


@pytest.fixture(scope="session")
def subcluster_c_core(subcluster_c):
    return core_network(subcluster_c)


@pytest.fixture(scope="session")
def subcluster_c_depth(subcluster_c):
    return recommended_search_depth(subcluster_c, "C-svc")


@pytest.fixture(scope="session")
def mapped_c(subcluster_c, subcluster_c_depth):
    """One full Berkeley mapping run of subcluster C, shared by many tests."""
    svc = QuiescentProbeService(subcluster_c, "C-svc")
    result = BerkeleyMapper(
        svc,
        search_depth=subcluster_c_depth,
        host_first=False,
        record_growth=True,
    ).map()
    return result
