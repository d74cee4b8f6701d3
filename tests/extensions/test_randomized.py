"""Coupon-collecting / randomized mapper extension tests."""

import pytest

from repro.extensions.randomized import CouponMapper
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import core_network, recommended_search_depth
from repro.topology.generators import build_fat_tree
from repro.topology.isomorphism import match_networks


def _coupon(net, mapper="h0", coupon_probes=40, seed=1, **kwargs):
    depth = recommended_search_depth(net, mapper)
    svc = QuiescentProbeService(net, mapper)
    mapper_obj = CouponMapper(
        svc,
        search_depth=depth,
        host_first=False,
        coupon_probes=coupon_probes,
        coupon_seed=seed,
        **kwargs,
    )
    return mapper_obj, mapper_obj.map()


class TestCorrectness:
    @pytest.mark.parametrize(
        "fixture_name", ["tiny_net", "two_switch_net", "ring_net", "bridge_net"]
    )
    def test_map_still_correct(self, fixture_name, request):
        net = request.getfixturevalue(fixture_name)
        _, result = _coupon(net)
        report = match_networks(result.network, core_network(net))
        assert report, report.reason

    def test_zero_coupons_is_plain_mapper(self, ring_net):
        mapper, result = _coupon(ring_net, coupon_probes=0)
        assert mapper.coupon_hits == 0
        assert match_networks(result.network, ring_net)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeds_vary_but_stay_correct(self, ring_net, seed):
        _, result = _coupon(ring_net, seed=seed)
        assert match_networks(result.network, ring_net)

    def test_negative_coupons_rejected(self, ring_net):
        with pytest.raises(ValueError):
            _coupon(ring_net, coupon_probes=-1)


class TestSeeding:
    def test_coupon_hits_register_hosts_early(self):
        """Random maximal-depth probes land on hosts in a dense fat tree."""
        net = build_fat_tree(n_leaves=4, hosts_per_leaf=4)
        mapper, result = _coupon(
            net, mapper=sorted(net.hosts)[0], coupon_probes=150, seed=4
        )
        assert mapper.coupon_hits > 0
        assert match_networks(result.network, net)

    def test_coupon_probes_are_charged(self, ring_net):
        _, plain = _coupon(ring_net, coupon_probes=0)
        _, seeded = _coupon(ring_net, coupon_probes=50)
        # Seeding pays for its probes; the total reflects the trade.
        assert seeded.stats.total_probes != plain.stats.total_probes
