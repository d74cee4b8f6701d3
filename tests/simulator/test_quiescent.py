"""Quiescent probe service: the R function, accounting, timing, daemons."""

import random

import pytest

from repro.core.instrumentation import TraceRecorder
from repro.simulator.collision import CircuitModel, PacketModel
from repro.simulator.faults import FaultModel
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import TraceBusLayer
from repro.simulator import quiescent, timing
from tests.topology.reference_builder import NetworkBuilder


class TestHostProbe:
    def test_hit_returns_name(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        assert svc.probe_host((3,)) == "h1"

    def test_miss_on_free_port(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        assert svc.probe_host((2,)) is None

    def test_miss_on_switch(self, two_switch_net):
        svc = QuiescentProbeService(two_switch_net, "h0")
        assert svc.probe_host((4,)) is None  # stranded at s1

    def test_probe_back_to_self(self, two_switch_net):
        # h0 @ s0:0; +1 -> port 1 = h1... and 0 turns would strand; route
        # to h0 itself: +4 into s1 then -2 -> s1 port 0? Use simple: probe
        # (1,) hits h1; the mapper's own host is reachable via its switch.
        svc = QuiescentProbeService(two_switch_net, "h1")
        # h1 @ s0:1; turn -1 -> port 0 = h0.
        assert svc.probe_host((-1,)) == "h0"

    def test_validates_turns(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        with pytest.raises(ValueError):
            svc.probe_host((0,))


class TestSwitchProbe:
    def test_switch_at_far_end(self, two_switch_net):
        svc = QuiescentProbeService(two_switch_net, "h0")
        assert svc.probe_switch((4,)) is True

    def test_host_at_far_end_is_not_switch(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        assert svc.probe_switch((3,)) is False

    def test_nothing_at_far_end(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        assert svc.probe_switch((2,)) is False


class TestResponseFunction:
    def test_pair_semantics(self, two_switch_net):
        svc = QuiescentProbeService(two_switch_net, "h0")
        assert svc.response((1,)) == "h1"
        assert svc.response((4,)) == "switch"
        assert svc.response((2,)) is None

    def test_host_first_skips_switch_probe(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0")
        svc.response((3,), host_first=True)
        assert svc.stats.host_probes == 1
        assert svc.stats.switch_probes == 0

    def test_switch_first_skips_host_probe(self, two_switch_net):
        svc = QuiescentProbeService(two_switch_net, "h0")
        svc.response((4,), host_first=False)
        assert svc.stats.switch_probes == 1
        assert svc.stats.host_probes == 0


class TestDaemons:
    def test_non_responder_is_silent(self, tiny_net):
        svc = QuiescentProbeService(
            tiny_net, "h0", responders=frozenset({"h2"})
        )
        assert svc.probe_host((3,)) is None  # h1 has no daemon
        assert svc.probe_host((7,)) == "h2"

    def test_mapper_always_responds(self, tiny_net):
        svc = QuiescentProbeService(tiny_net, "h0", responders=frozenset())
        # A probe that loops back to the mapper's own host still answers.
        # h0 is at port 0; from h2 (not used) - instead verify via h0: no
        # single-turn route back to h0 from h0, so check the flag directly.
        assert svc._responds("h0") is True
        assert svc._responds("h1") is False


class TestCollisionIntegration:
    def test_circuit_blocks_tail_stepping_probe(self):
        # Ring of 2 switches with parallel wires lets a probe return to a
        # previously-used directed wire within the same worm.
        b = NetworkBuilder()
        b.switches("s0", "s1")
        b.hosts("h0", "h1")
        b.attach("h0", "s0", port=0)
        b.attach("h1", "s0", port=3)
        b.link("s0", "s1", port_a=1, port_b=0)
        b.link("s0", "s1", port_a=2, port_b=1)
        net = b.build()
        # h0 -> s0:0; +1 crosses w1 -> s1:0; +1 crosses w2 -> s0:2; -1
        # crosses w1 again in the SAME direction; +1 crosses w2 again;
        # +1 exits port 3 to h1. The circuit model must kill it (directed
        # reuse of both wires); packet routing delivers it.
        turns = (1, 1, -1, 1, 1)
        svc_circuit = QuiescentProbeService(net, "h0", collision=CircuitModel())
        svc_packet = QuiescentProbeService(net, "h0", collision=PacketModel())
        assert svc_packet.probe_host(turns) is not None
        assert svc_circuit.probe_host(turns) is None


class TestTimingAccounting:
    def test_costs_accumulate(self, tiny_net, monkeypatch):
        monkeypatch.setattr(timing, "HOST_OVERHEAD_US", 100)
        monkeypatch.setattr(timing, "REPLY_OVERHEAD_US", 10)
        monkeypatch.setattr(quiescent, "PROBE_TIMEOUT_US", 100 + 500)
        svc = QuiescentProbeService(tiny_net, "h0")
        svc.probe_host((3,))  # hit
        hit_cost = svc.stats.elapsed_us
        assert 110 < hit_cost < 130  # overheads + small wire time
        svc.probe_host((2,))  # miss
        assert svc.stats.elapsed_us == pytest.approx(hit_cost + 600)

    def test_jitter_deterministic_per_seed(self, tiny_net):
        def total(seed):
            svc = QuiescentProbeService(tiny_net, "h0", jitter=0.1, rng=random.Random(seed))
            for _ in range(5):
                svc.probe_host((3,))
            return svc.stats.elapsed_us

        assert total(1) == total(1)
        assert total(1) != total(2)

    def test_jitter_bounds(self, tiny_net):
        with pytest.raises(ValueError):
            QuiescentProbeService(tiny_net, "h0", jitter=1.5)

    def test_stats_counters(self, two_switch_net):
        recorder = TraceRecorder()
        svc = QuiescentProbeService(
            two_switch_net, "h0", layers=(TraceBusLayer((recorder,)),)
        )
        svc.probe_host((1,))
        svc.probe_host((2,))
        svc.probe_switch((4,))
        s = svc.stats
        assert (s.host_probes, s.host_hits) == (2, 1)
        assert (s.switch_probes, s.switch_hits) == (1, 1)
        assert s.total_probes == 3 and s.total_hits == 2
        assert s.host_hit_ratio == 0.5
        assert len(recorder.records) == 3
        assert s.snapshot().total_probes == 3


class TestFaults:
    def test_dead_wire_eats_probes(self, tiny_net):
        wire = tiny_net.wire_at("s0", 3)
        faults = FaultModel(dead_wires=frozenset({frozenset((wire.a, wire.b))}))
        svc = QuiescentProbeService(tiny_net, "h0", faults=faults)
        assert svc.probe_host((3,)) is None  # h1 behind the dead wire
        assert svc.probe_host((7,)) == "h2"  # other paths fine

    def test_drop_probability_one_kills_everything(self, tiny_net):
        svc = QuiescentProbeService(
            tiny_net, "h0", faults=FaultModel(drop_prob=1.0)
        )
        assert svc.probe_host((3,)) is None

    def test_probe_loopback_raw_worm(self, two_switch_net):
        svc = QuiescentProbeService(two_switch_net, "h0")
        # Manual out-and-back with an explicit 0 bounce.
        assert svc.probe_loopback((4, 0, -4)) is True
        assert svc.probe_loopback((1,)) is False  # ends at a host, not h0
