"""Channel occupancy, traffic and daemon placement tests."""

from repro.simulator.occupancy import ChannelOccupancy
from repro.simulator.path_eval import PathResult, PathStatus, Traversal
from repro.simulator import traffic as traffic_module
from repro.simulator.traffic import CrossTraffic, host_pair_paths
from repro.simulator.daemons import DaemonPlacement
from repro.topology.model import PortRef


def _path(*hops):
    """Build a PathResult from (node, port, node, port) hop tuples."""
    trs = [Traversal(PortRef(a, pa), PortRef(b, pb)) for a, pa, b, pb in hops]
    return PathResult(status=PathStatus.DELIVERED, nodes=[], traversals=trs)


class TestOccupancy:
    def test_disjoint_worms_both_placed(self):
        occ = ChannelOccupancy()
        p1 = _path(("a", 0, "b", 0))
        p2 = _path(("c", 0, "d", 0))
        assert occ.try_place(p1, 0.0).ok
        assert occ.try_place(p2, 0.0).ok

    def test_conflicting_worms_block(self):
        occ = ChannelOccupancy()
        p = _path(("a", 0, "b", 0))
        assert occ.try_place(p, 0.0).ok
        placement = occ.try_place(p, 0.0)
        assert not placement.ok
        assert placement.blocked_channel is not None

    def test_opposite_directions_do_not_conflict(self):
        occ = ChannelOccupancy()
        fwd = _path(("a", 0, "b", 0))
        rev = _path(("b", 0, "a", 0))
        assert occ.try_place(fwd, 0.0).ok
        assert occ.try_place(rev, 0.0).ok

    def test_time_separation_avoids_conflict(self):
        occ = ChannelOccupancy()
        p = _path(("a", 0, "b", 0))
        assert occ.try_place(p, 0.0).ok
        assert occ.try_place(p, 1000.0).ok  # a millisecond later

    def test_blocked_worm_holds_partial_path(self):
        occ = ChannelOccupancy()
        blocker = _path(("m", 0, "n", 0))
        assert occ.try_place(blocker, 0.0).ok
        # Two-hop worm whose second hop conflicts: its FIRST hop should
        # stay held for the ROM timeout.
        worm = _path(("x", 0, "m", 1), ("m", 0, "n", 0))
        placement = occ.try_place(worm, 0.0)
        assert not placement.ok
        held = _path(("x", 0, "m", 1))
        # The held first hop now blocks an unrelated worm well within the
        # 55 ms window...
        assert not occ.try_place(held, 10_000.0).ok
        # ...but not after the forward reset cleared it.
        assert occ.try_place(held, 60_000.0).ok

    def test_larger_messages_hold_longer(self):
        occ = ChannelOccupancy()
        p = _path(("a", 0, "b", 0))
        assert occ.try_place(p, 0.0, message_bytes=64_000).ok
        # 64 kB at 160 B/us holds the channel ~400 us.
        assert not occ.try_place(p, 200.0).ok
        assert occ.try_place(p, 1000.0).ok


class TestCrossTraffic:
    def test_host_pair_paths_cover_all_pairs(self, two_switch_net):
        paths = host_pair_paths(two_switch_net)
        hosts = sorted(two_switch_net.hosts)
        assert len(paths) == len(hosts) * (len(hosts) - 1)
        # Paths are wire-level and connected end to end.
        trs = paths[("h0", "h2")]
        assert trs[0].src.node == "h0"
        assert trs[-1].dst.node == "h2"

    def test_fill_until_is_incremental(self, two_switch_net, monkeypatch):
        monkeypatch.setattr(traffic_module, "TRAFFIC_SEED", 3)
        traffic = CrossTraffic(
            two_switch_net, ChannelOccupancy(), frozenset(), rate_msgs_per_ms=5.0
        )
        first = traffic.fill_until(10_000.0)
        again = traffic.fill_until(10_000.0)  # no new coverage
        assert first > 0
        assert again == 0
        more = traffic.fill_until(20_000.0)
        assert more > 0

    def test_zero_rate_is_free(self, two_switch_net):
        traffic = CrossTraffic(
            two_switch_net, ChannelOccupancy(), frozenset(), rate_msgs_per_ms=0.0
        )
        assert traffic.fill_until(1e6) == 0

    def test_excluded_hosts_send_nothing(self, two_switch_net):
        traffic = CrossTraffic(
            two_switch_net,
            ChannelOccupancy(),
            frozenset(two_switch_net.hosts),
            rate_msgs_per_ms=5.0,
        )
        assert traffic.fill_until(10_000.0) == 0


class TestDaemonPlacement:
    def test_sequential_fill_order(self, two_switch_net):
        p = DaemonPlacement.sequential_fill(two_switch_net, 2)
        assert p.responders == {"h0", "h1"}

    def test_random_fill_deterministic(self, two_switch_net):
        a = DaemonPlacement.random_fill(two_switch_net, 2)
        b = DaemonPlacement.random_fill(two_switch_net, 2)
        assert a.responders == b.responders
        assert len(a.responders) == 2

    def test_including(self, two_switch_net):
        p = DaemonPlacement.sequential_fill(two_switch_net, 1).including("h3")
        assert p.responders == {"h0", "h3"}
