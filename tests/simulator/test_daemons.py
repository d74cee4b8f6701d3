"""Daemon-placement tests: who answers probes, and what silence costs.

Figure 9's experimental knob is *which hosts run a mapping daemon*: a
host-probe that reaches a daemon-less host gets no reply, so the mapper pays
a timeout and learns only that something absorbed the probe. These tests pin
the placement constructors and the probe-level consequences of partial
placement, including that a fixed placement replays deterministically.
"""

from repro.core.mapper import BerkeleyMapper
from repro.simulator.daemons import DaemonPlacement
from repro.simulator.quiescent import QuiescentProbeService
from repro.topology.analysis import recommended_search_depth
from repro.topology.serialize import network_to_dict


class TestPlacementConstructors:
    def test_sequential_fill_takes_lowest_node_numbers(self, two_switch_net):
        placement = DaemonPlacement.sequential_fill(two_switch_net, 2)
        assert placement.responders == frozenset({"h0", "h1"})

    def test_sequential_fill_clamps(self, two_switch_net):
        assert not DaemonPlacement.sequential_fill(two_switch_net, -3).responders
        assert len(DaemonPlacement.sequential_fill(two_switch_net, 99).responders) == 4

    def test_random_fill_is_deterministic_per_seed(self, two_switch_net):
        a = DaemonPlacement.random_fill(two_switch_net, 2)
        b = DaemonPlacement.random_fill(two_switch_net, 2)
        assert a.responders == b.responders
        assert len(a.responders) == 2


class TestPartialPlacementProbing:
    """Probe interference: daemon-less hosts are timeouts, not replies."""

    def test_silent_host_answers_nothing(self, two_switch_net):
        placement = DaemonPlacement(frozenset({"h0", "h2"}))
        svc = QuiescentProbeService(
            two_switch_net, "h0", responders=placement.responders
        )
        # h1 @ s0:1 (turn 1 from h0's port 0) runs no daemon -> silence;
        # h2 @ s1:6 (cross the s0:4--s1:2 cable, then turn 4) does.
        assert svc.probe_host((1,)) is None
        assert svc.probe_host((4, 4)) == "h2"

    def test_silence_costs_a_timeout(self, two_switch_net):
        full = QuiescentProbeService(two_switch_net, "h0")
        partial = QuiescentProbeService(
            two_switch_net, "h0", responders=frozenset({"h0"})
        )
        full.probe_host((1,))
        partial.probe_host((1,))
        assert partial.stats.elapsed_us > full.stats.elapsed_us

    def test_switch_probes_unaffected_by_placement(self, two_switch_net):
        svc = QuiescentProbeService(
            two_switch_net, "h0", responders=frozenset({"h0"})
        )
        assert svc.probe_switch((4,)) is True

    def test_map_omits_silent_hosts(self, two_switch_net):
        placement = DaemonPlacement.sequential_fill(two_switch_net, 2)
        depth = recommended_search_depth(two_switch_net, "h0")
        svc = QuiescentProbeService(
            two_switch_net, "h0", responders=placement.responders
        )
        produced = BerkeleyMapper(
            svc, search_depth=depth, host_first=False
        ).map().network
        assert set(produced.hosts) == {"h0", "h1"}
        # Unanchored switches get synthetic names; count is what's knowable.
        assert produced.n_switches == 2


class TestDeterministicReplay:
    def test_same_placement_same_seed_same_trace(self, ring_net):
        """Two runs of the identical configuration must agree bit-for-bit:
        same map, same probe count, same simulated clock."""

        def run():
            placement = DaemonPlacement.random_fill(ring_net, 3)
            svc = QuiescentProbeService(
                ring_net,
                "h0",
                responders=placement.responders,
            )
            depth = recommended_search_depth(ring_net, "h0")
            result = BerkeleyMapper(
                svc, search_depth=depth, host_first=False
            ).map()
            return (
                network_to_dict(result.network),
                result.stats.total_probes,
                result.stats.elapsed_us,
            )

        assert run() == run()
