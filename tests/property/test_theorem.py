"""Property-based validation of Theorem 1 over random topologies.

Theorem 1: under circuit routing, ``M / L`` is isomorphic to ``N - F``;
under cut-through routing with ``F`` empty, ``M / L`` is isomorphic to
``N``. The production mapper realizes ``M / L`` directly, so the property
reads: *map any random connected SAN and get exactly its core back, up to
per-switch port offsets.*
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.mapper import BerkeleyMapper
from repro.simulator.collision import CircuitModel, CutThroughModel, PacketModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.generators import (
    build_hypercube,
    build_mesh,
    build_torus,
    random_san,
)
from repro.topology.isomorphism import match_networks
from repro.topology.builder import NetworkBuilder
from repro.topology.model import Network, TopologyError


def _try_san(**params):
    """Build a random SAN, or None when the draw is infeasible (e.g. the
    requested density exceeds the port budget)."""
    try:
        return random_san(**params)
    except TopologyError:
        return None

# Sizes are kept modest: Q+D+1-depth exploration of dense random graphs is
# exponential in the worst case (the paper's own bound), and hypothesis
# runs dozens of cases.
network_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=6),
        "n_hosts": st.integers(min_value=2, max_value=6),
        "extra_links": st.integers(min_value=0, max_value=3),
        "parallel_link_prob": st.sampled_from([0.0, 0.5]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _map_with(net, collision, mapper=None):
    mapper = mapper or sorted(net.hosts)[0]
    depth = recommended_search_depth(net, mapper)
    svc = QuiescentProbeService(net, mapper, collision=collision)
    return BerkeleyMapper(
        svc, search_depth=depth, host_first=False, max_explorations=4000
    ).map()


def _three_level_fat_tree() -> Network:
    """Eight leaves of four hosts under four middle switches and two roots;
    every switch uplinks to two of the level above, round-robin."""
    b = NetworkBuilder()
    levels = [[f"ft-leaf-{i}" for i in range(8)]]
    levels += [[f"ft-l{li}-{i}" for i in range(width)] for li, width in ((1, 4), (2, 2))]
    for s in (s for level in levels for s in level):
        b.switch(s)
    for no in range(32):
        b.host(f"ft-n{no:03d}")
        b.attach(f"ft-n{no:03d}", levels[0][no // 4])
    for lower, upper in zip(levels, levels[1:]):
        for i, sw in enumerate(lower):
            for j in range(2):
                b.link(sw, upper[(i + j) % len(upper)])
    return b.build(require_connected=True)


#: Larger structured and random fabrics than hypothesis is allowed to draw.
LARGER_FABRICS = {
    "fat-tree-8x4": _three_level_fat_tree,
    "mesh-4x4": lambda: build_mesh(4, 4, hosts_per_switch=1),
    "torus-3x4": lambda: build_torus(3, 4, hosts_per_switch=1),
    "hypercube-4": lambda: build_hypercube(4, hosts_per_switch=1),
    "random-12sw": lambda: random_san(
        n_switches=12, n_hosts=10, extra_links=6, seed=42
    ),
}


class TestTheoremCircuit:
    @pytest.mark.parametrize("name", sorted(LARGER_FABRICS))
    def test_larger_fabric_isomorphic_to_core(self, name):
        net = LARGER_FABRICS[name]()
        result = _map_with(net, CircuitModel())
        report = match_networks(result.network, core_network(net))
        assert report, f"{name}: {report.reason}"

    @given(params=network_params)
    @settings(**_SETTINGS)
    def test_map_isomorphic_to_core(self, params):
        net = _try_san(**params)
        if net is None:
            return
        result = _map_with(net, CircuitModel())
        core = core_network(net)
        report = match_networks(result.network, core)
        assert report, f"{params}: {report.reason}"

    @given(params=network_params, pendants=st.integers(min_value=1, max_value=2))
    @settings(**_SETTINGS)
    def test_f_regions_always_pruned(self, params, pendants):
        net = _try_san(**params, pendant_switches=pendants)
        if net is None:
            return
        result = _map_with(net, CircuitModel())
        core = core_network(net)
        report = match_networks(result.network, core)
        assert report, f"{params}+{pendants} pendants: {report.reason}"


class TestTheoremCutThrough:
    @given(params=network_params, slack=st.integers(min_value=1, max_value=4))
    @settings(**_SETTINGS)
    def test_cut_through_with_empty_f(self, params, slack):
        net = _try_san(**params)  # no pendants: F is usually empty
        if net is None:
            return
        from repro.topology.analysis import separated_set

        if separated_set(net):  # rare: random extra links can make bridges
            return
        result = _map_with(net, CutThroughModel(slack_hops=slack))
        report = match_networks(result.network, net)
        assert report, f"{params} slack={slack}: {report.reason}"


class TestPacketBaseline:
    @given(params=network_params)
    @settings(**_SETTINGS)
    def test_packet_routing_trivially_correct(self, params):
        """Section 1.2: 'this algorithm is trivially correct assuming
        packet routing'."""
        net = _try_san(**params)
        if net is None:
            return
        from repro.topology.analysis import separated_set

        if separated_set(net):
            # Packet probes never self-collide, so they can re-cross a
            # bridge into F and map switches beyond the core: the produced
            # map is correct but *richer* than core_network's oracle.
            return
        result = _map_with(net, PacketModel())
        report = match_networks(result.network, core_network(net))
        assert report, f"{params}: {report.reason}"


class TestSoundness:
    @given(
        params=network_params,
        responder_count=st.integers(min_value=1, max_value=3),
    )
    @settings(**_SETTINGS)
    def test_partial_information_never_fabricates(self, params, responder_count):
        """With arbitrary subsets of silent hosts the map may be incomplete
        but must embed in the truth: real host names only, no more nodes
        than reality."""
        net = _try_san(**params)
        if net is None:
            return
        hosts = sorted(net.hosts)
        responders = frozenset(hosts[:responder_count])
        mapper = hosts[0]
        depth = recommended_search_depth(net, mapper)
        svc = QuiescentProbeService(net, mapper, responders=responders)
        result = BerkeleyMapper(
            svc, search_depth=depth, host_first=False, max_explorations=2000
        ).map()
        produced = result.network
        assert set(produced.hosts) <= set(net.hosts)
        assert set(produced.hosts) <= responders | {mapper}
