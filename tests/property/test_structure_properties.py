"""Property tests for the substrate data structures and algebra."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.myricom import MyricomMapper
from repro.core.mapper import BerkeleyMapper
from repro.simulator.collision import CircuitModel, CutThroughModel
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.turns import reverse_turns
from repro.topology.analysis import recommended_search_depth
from repro.topology.generators import random_san
from repro.topology.isomorphism import match_networks
from repro.topology.model import TopologyError
from repro.topology.serialize import network_from_dict, network_to_dict
from tests.simulator.reference_service import switch_probe_turns
from tests.topology.reference_isomorphism import networks_equal

turns_strategy = st.lists(
    st.integers(min_value=-7, max_value=7).filter(bool), min_size=1, max_size=10
).map(tuple)

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small_net_params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=1, max_value=6),
        "n_hosts": st.integers(min_value=2, max_value=6),
        "extra_links": st.integers(min_value=0, max_value=3),
        "seed": st.integers(min_value=0, max_value=5000),
    }
)


def _try_san(**params):
    try:
        return random_san(**params)
    except TopologyError:
        return None


class TestTurnAlgebra:
    @given(turns=turns_strategy)
    def test_reverse_is_involution(self, turns):
        assert reverse_turns(reverse_turns(turns)) == turns

    @given(turns=turns_strategy)
    def test_switch_probe_palindrome_structure(self, turns):
        loop = switch_probe_turns(turns)
        k = len(turns)
        assert len(loop) == 2 * k + 1
        assert loop[k] == 0
        assert loop[:k] == turns
        assert loop[k + 1 :] == reverse_turns(turns)


class TestPathEvaluation:
    @given(params=small_net_params, turns=turns_strategy)
    @settings(**_SETTINGS)
    def test_evaluation_total_and_sane(self, params, turns):
        """Route evaluation never crashes and its trace is connected."""
        net = _try_san(**params)
        if net is None:
            return
        mapper = sorted(net.hosts)[0]
        result = evaluate_route(net, mapper, turns)
        # Trace consistency: consecutive traversals share the middle node.
        for a, b in zip(result.traversals, result.traversals[1:]):
            assert a.dst.node == b.src.node
        if result.status is PathStatus.DELIVERED:
            assert net.is_host(result.delivered_to)
            assert len(result.traversals) == len(turns) + 1

    @given(params=small_net_params, turns=turns_strategy)
    @settings(**_SETTINGS)
    def test_loopback_probe_symmetry(self, params, turns):
        """If the forward string reaches a switch collision-free, the
        switch-probe loopback delivers back to the sender under packet
        routing semantics (no collision model)."""
        net = _try_san(**params)
        if net is None:
            return
        mapper = sorted(net.hosts)[0]
        fwd = evaluate_route(net, mapper, turns)
        if fwd.status is not PathStatus.STRANDED:
            return  # forward string does not end inside a switch
        loop = evaluate_route(net, mapper, switch_probe_turns(turns))
        assert loop.status is PathStatus.DELIVERED
        assert loop.delivered_to == mapper


class TestSerializationProperty:
    @given(params=small_net_params)
    @settings(**_SETTINGS)
    def test_round_trip_identity(self, params):
        net = _try_san(**params)
        if net is None:
            return
        assert networks_equal(net, network_from_dict(network_to_dict(net)))


class TestMapperAgreement:
    @given(params=small_net_params)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_berkeley_and_myricom_agree(self, params):
        """Two independent algorithms produce the same map of the core —
        strong cross-validation of both implementations."""
        net = _try_san(**params)
        if net is None:
            return
        mapper = sorted(net.hosts)[0]
        depth = recommended_search_depth(net, mapper)
        svc_b = QuiescentProbeService(net, mapper)
        berkeley = BerkeleyMapper(
            svc_b, search_depth=depth, host_first=False, max_explorations=3000
        ).map()
        svc_m = QuiescentProbeService(net, mapper)
        myricom = MyricomMapper(svc_m, search_depth=depth).map()
        assert match_networks(
            berkeley.network, myricom.network
        ), params
