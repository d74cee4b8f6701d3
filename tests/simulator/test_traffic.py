"""Cross-traffic tests: routed worms, channel contention, seeded replay.

Section 6 names "accurately mapping the network in the presence of
application cross-traffic" as the first open problem. These tests cover the
traffic generator itself — its routed paths, its Poisson arrivals, its
determinism — and the interference mechanism: a worm holding a channel
blocks a probe that needs it.
"""

from repro.simulator.occupancy import ChannelOccupancy
from repro.simulator import timing, traffic as traffic_module
from repro.simulator.traffic import CrossTraffic, host_pair_paths


class TestHostPairPaths:
    def test_every_ordered_pair_present(self, two_switch_net):
        paths = host_pair_paths(two_switch_net)
        hosts = sorted(two_switch_net.hosts)
        assert set(paths) == {
            (a, b) for a in hosts for b in hosts if a != b
        }

    def test_paths_are_contiguous_routes(self, two_switch_net):
        for (src, dst), traversals in host_pair_paths(two_switch_net).items():
            assert traversals[0].src.node == src
            assert traversals[-1].dst.node == dst
            for prev, nxt in zip(traversals, traversals[1:]):
                assert prev.dst.node == nxt.src.node

    def test_cross_switch_pair_uses_inter_switch_cable(self, two_switch_net):
        traversals = host_pair_paths(two_switch_net)[("h0", "h2")]
        crossed = {
            frozenset((t.src.node, t.dst.node)) for t in traversals
        }
        assert frozenset(("s0", "s1")) in crossed


class TestCrossTrafficGenerator:
    def _traffic(self, net, *, rate=50.0, exclude=frozenset()):
        return CrossTraffic(net, ChannelOccupancy(), exclude, rate_msgs_per_ms=rate)

    def test_zero_rate_places_nothing(self, ring_net):
        traffic = self._traffic(ring_net, rate=0.0)
        assert traffic.fill_until(50_000.0) == 0
        assert traffic.messages_placed == 0

    def test_fill_until_is_lazy_and_monotone(self, ring_net):
        traffic = self._traffic(ring_net)
        first = traffic.fill_until(20_000.0)
        assert first > 0
        # Asking for already-covered time does nothing...
        assert traffic.fill_until(10_000.0) == 0
        # ...and extending the horizon only adds messages.
        assert traffic.fill_until(40_000.0) > 0
        assert traffic.messages_placed >= first

    def test_seeded_replay_is_identical(self, ring_net, monkeypatch):
        monkeypatch.setattr(traffic_module, "TRAFFIC_SEED", 4)

        def run():
            traffic = self._traffic(ring_net)
            traffic.fill_until(30_000.0)
            return traffic.messages_placed, traffic.messages_blocked

        assert run() == run()

    def test_excluded_hosts_never_appear(self, ring_net):
        traffic = self._traffic(ring_net, exclude=frozenset({"h0"}))
        pairs = traffic._pair_list()
        assert pairs  # the other hosts still talk
        assert all("h0" not in key for key, _ in pairs)


class TestProbeInterference:
    def test_worm_blocks_concurrent_probe_on_same_channel(self, two_switch_net):
        """A placed message owns its channels for its service time; a probe
        needing one of those channels at the same instant is blocked."""
        occupancy = ChannelOccupancy()
        route = host_pair_paths(two_switch_net)[("h0", "h2")]
        worm = occupancy.try_place(
            route, 100.0, message_bytes=4096, record_blocked=True
        )
        assert worm.ok
        probe = occupancy.try_place(route, 100.0)
        assert not probe.ok

    def test_probe_passes_once_the_worm_drains(self, two_switch_net):
        occupancy = ChannelOccupancy()
        route = host_pair_paths(two_switch_net)[("h0", "h2")]
        assert occupancy.try_place(
            route, 100.0, message_bytes=4096, record_blocked=True
        ).ok
        tx_us = 4096 / timing.LINK_BANDWIDTH_BYTES_PER_US
        later = 100.0 + 10 * (tx_us + timing.SWITCH_LATENCY_US)
        assert occupancy.try_place(route, later).ok

    def test_disjoint_channels_do_not_interfere(self, two_switch_net):
        """h0->h1 stays inside s0; a worm there cannot block the h2->h3
        exchange inside s1."""
        occupancy = ChannelOccupancy()
        paths = host_pair_paths(two_switch_net)
        assert occupancy.try_place(
            paths[("h0", "h1")], 100.0, message_bytes=4096,
            record_blocked=True,
        ).ok
        assert occupancy.try_place(paths[("h2", "h3")], 100.0).ok
