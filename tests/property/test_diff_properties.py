"""Property tests for the map-diff module.

The remapping daemon's change detector must (a) never fire on identical
maps up to renaming/offsets, and (b) always fire when hosts actually came,
went, or moved — across random topologies and mutations.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.topology.diff import diff_networks
from repro.topology.generators import random_san
from repro.topology.model import TopologyError

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params = st.fixed_dictionaries(
    {
        "n_switches": st.integers(min_value=2, max_value=6),
        "n_hosts": st.integers(min_value=2, max_value=6),
        "extra_links": st.integers(min_value=0, max_value=3),
        "seed": st.integers(min_value=0, max_value=5000),
    }
)


def _try_san(**kw):
    try:
        return random_san(**kw)
    except TopologyError:
        return None


class TestDiffProperties:
    @given(p=params)
    @settings(**_SETTINGS)
    def test_self_diff_is_identical(self, p):
        net = _try_san(**p)
        if net is None:
            return
        d = diff_networks(net, net.copy())
        assert d.identical

    @given(p=params, victim_idx=st.integers(min_value=0, max_value=10))
    @settings(**_SETTINGS)
    def test_host_removal_always_detected(self, p, victim_idx):
        net = _try_san(**p)
        if net is None or net.n_hosts < 3:
            return
        mutated = net.copy()
        hosts = sorted(mutated.hosts)
        victim = hosts[victim_idx % len(hosts)]
        mutated.remove_node(victim)
        d = diff_networks(net, mutated)
        assert not d.identical
        assert victim in d.hosts_removed

    @given(p=params)
    @settings(**_SETTINGS)
    def test_host_addition_always_detected(self, p):
        net = _try_san(**p)
        if net is None:
            return
        mutated = net.copy()
        anchors = [s for s in mutated.switches if mutated.free_ports(s)]
        if not anchors:
            return
        mutated.add_host("brand-new")
        sw = sorted(anchors)[0]
        mutated.connect("brand-new", 0, sw, mutated.free_ports(sw)[0])
        d = diff_networks(net, mutated)
        assert d.hosts_added == ["brand-new"]

    @given(p=params, seed2=st.integers(min_value=0, max_value=5000))
    @settings(**_SETTINGS)
    def test_diff_symmetry_of_identity(self, p, seed2):
        """identical(a, b) == identical(b, a)."""
        a = _try_san(**p)
        b = _try_san(**{**p, "seed": seed2})
        if a is None or b is None:
            return
        assert diff_networks(a, b).identical == diff_networks(b, a).identical
