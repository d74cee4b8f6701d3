"""Property-based tests for the routing subsystem invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.routing.compile_routes import compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.paths import all_pairs_updown_paths, build_phase_graph
from repro.routing.updown import orient_updown
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.topology.generators import random_san
from repro.topology.model import TopologyError
from tests.routing.reference_paths import bfs_updown_lengths
from tests.routing.reference_views import distance, node_path

network_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=7),
        "n_hosts": st.integers(min_value=2, max_value=7),
        "extra_links": st.integers(min_value=0, max_value=4),
        "parallel_link_prob": st.sampled_from([0.0, 0.4]),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _pipeline(net):
    ori = orient_updown(net)
    paths = all_pairs_updown_paths(net, ori)
    tables = compile_route_tables(net, paths)
    return ori, paths, tables


def _try_san(**params):
    try:
        return random_san(**params)
    except TopologyError:
        return None


class TestUpDownInvariants:
    @given(params=network_params)
    @settings(**_SETTINGS)
    def test_every_host_pair_routed(self, params):
        """UP*/DOWN* is connectivity-complete on connected networks: the
        up-phase can always climb to the root and descend anywhere."""
        net = _try_san(**params)
        if net is None:
            return
        _, _, tables = _pipeline(net)
        hosts = sorted(net.hosts)
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    assert dst in tables[src].routes, (src, dst, params)

    @given(params=network_params)
    @settings(**_SETTINGS)
    def test_routes_always_deadlock_free(self, params):
        net = _try_san(**params)
        if net is None:
            return
        _, _, tables = _pipeline(net)
        assert routes_deadlock_free(tables), params

    @given(params=network_params)
    @settings(**_SETTINGS)
    def test_compiled_turns_deliver(self, params):
        net = _try_san(**params)
        if net is None:
            return
        _, _, tables = _pipeline(net)
        for table in tables.values():
            for dst, route in table.routes.items():
                outcome = evaluate_route(net, table.host, route.turns)
                assert outcome.status is PathStatus.DELIVERED, (params, route)
                assert outcome.delivered_to == dst

    @given(params=network_params)
    @settings(**_SETTINGS)
    def test_fw_agrees_with_bfs(self, params):
        net = _try_san(**params)
        if net is None:
            return
        ori = orient_updown(net)
        graph = build_phase_graph(net, ori)
        paths = all_pairs_updown_paths(net, ori)
        src = sorted(net.hosts)[0]
        bfs = bfs_updown_lengths(net, ori, src, graph=graph)
        for dst in sorted(net.nodes):
            assert distance(paths, src, dst) == bfs.get(dst), (params, dst)

    @given(params=network_params)
    @settings(**_SETTINGS)
    def test_no_route_turns_down_then_up(self, params):
        net = _try_san(**params)
        if net is None:
            return
        ori, paths, _ = _pipeline(net)
        hosts = sorted(net.hosts)
        for src in hosts[:3]:
            for dst in hosts[:3]:
                if src == dst:
                    continue
                p = node_path(paths, src, dst)
                went_down = False
                for u, v in zip(p, p[1:]):
                    if ori.is_up(u, v):
                        assert not went_down, (params, p)
                    else:
                        went_down = True
