"""Unit tests for the probe-service middleware stack.

Each layer is exercised in isolation against a real quiescent core (the
layers are thin; mocking the engine would test nothing), plus the
factory and the hook-ordering contract.
"""

import pytest

from repro.core.instrumentation import TraceRecorder
from repro.simulator.probes import ProbeKind, ProbeRecord
from repro.simulator.quiescent import QuiescentProbeService
from repro.simulator.stack import (
    CapLayer,
    CountingLayer,
    ProbeBudgetExceeded,
    ProbeLayer,
    RetryLayer,
    TraceBusLayer,
    build_service_stack,
)


class TestCountingLayer:
    def test_fires_each_trigger_before_its_threshold_probe(self, tiny_net):
        fired: list[str] = []
        layer = CountingLayer(
            [
                (3, lambda: fired.append("third")),
                (1, lambda: fired.append("first")),
            ]
        )
        svc = build_service_stack(tiny_net, "h0", layers=(layer,))
        svc.probe_switch((1,))  # probe 0: nothing
        assert fired == []
        svc.probe_switch((1,))  # probe 1: threshold 1 fires first
        assert fired == ["first"]
        svc.probe_switch((1,))  # probe 2: nothing
        svc.probe_switch((1,))  # probe 3: threshold 3 fires
        assert fired == ["first", "third"]

    def test_threshold_zero_fires_before_the_first_probe(self, tiny_net):
        fired = []
        layer = CountingLayer([(0, lambda: fired.append("immediate"))])
        svc = build_service_stack(tiny_net, "h0", layers=(layer,))
        assert fired == []  # construction alone does not fire
        svc.probe_switch((1,))
        assert fired == ["immediate"]

    def test_equal_thresholds_fire_in_given_order(self, tiny_net):
        fired = []
        layer = CountingLayer(
            [(2, lambda: fired.append("a")), (2, lambda: fired.append("b"))]
        )
        svc = build_service_stack(tiny_net, "h0", layers=(layer,))
        for _ in range(3):
            svc.probe_switch((1,))
        assert fired == ["a", "b"]

    def test_counts_every_probe_kind(self, tiny_net):
        layer = CountingLayer()
        svc = build_service_stack(tiny_net, "h0", layers=(layer,))
        svc.probe_host((3,))
        svc.probe_switch((1,))
        svc.probe_loopback((1, -1))
        assert layer.sent == 3

    def test_retry_attempts_count_as_probes(self, tiny_net):
        """A retry is a fresh send: counting triggers see every attempt."""
        fired = []
        counting = CountingLayer([(2, lambda: fired.append("hit"))])
        svc = build_service_stack(
            tiny_net, "h0", layers=(counting, RetryLayer(2))
        )
        svc.probe_host((2,))  # structural miss: 3 attempts = 3 probes
        assert counting.sent == 3
        assert fired == ["hit"]


class TestCapLayer:
    def test_budget_trips_before_the_cap_probe(self, tiny_net):
        svc = build_service_stack(tiny_net, "h0", layers=(CapLayer(2),))
        svc.probe_switch((1,))
        svc.probe_switch((1,))
        with pytest.raises(ProbeBudgetExceeded) as err:
            svc.probe_switch((1,))
        assert err.value.cap == 2
        assert svc.stats.total_probes == 2  # the third never hit the wire

    def test_zero_cap_rejects_every_probe(self, tiny_net):
        svc = build_service_stack(tiny_net, "h0", layers=(CapLayer(0),))
        with pytest.raises(ProbeBudgetExceeded):
            svc.probe_switch((1,))
        assert svc.stats.total_probes == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            CapLayer(-1)


class TestTraceBusLayer:
    def test_publishes_every_accounted_record(self, tiny_net):
        seen: list[ProbeRecord] = []
        svc = build_service_stack(
            tiny_net, "h0", layers=(TraceBusLayer((seen.append,)),)
        )
        assert svc.probe_host((3,)) == "h1"
        assert svc.probe_host((2,)) is None
        kinds_hits = [(r.kind, r.hit) for r in seen]
        assert kinds_hits == [(ProbeKind.HOST, True), (ProbeKind.HOST, False)]
        assert seen[0].response == "h1"

    def test_subscribers_run_in_subscription_order(self, tiny_net):
        order = []
        bus = TraceBusLayer((lambda r: order.append("a"), lambda r: order.append("b")))
        svc = build_service_stack(tiny_net, "h0", layers=(bus,))
        svc.probe_switch((1,))
        assert order == ["a", "b"]

    def test_bus_matches_kept_trace(self, tiny_net):
        # The service retains counters only; a subscribed TraceRecorder is
        # how a trace is kept, and it accounts for exactly what they count.
        seen = []
        recorder = TraceRecorder()
        svc = build_service_stack(
            tiny_net, "h0", layers=(TraceBusLayer((seen.append, recorder)),)
        )
        svc.probe_host((3,))
        svc.probe_switch((1,))
        assert recorder.records == seen
        assert len(seen) == svc.stats.total_probes == 2
        assert sum(r.cost_us for r in seen) == svc.stats.elapsed_us


class TestHookContract:
    def test_gates_after_a_veto_are_skipped(self, tiny_net):
        calls = []

        class Veto(ProbeLayer):
            def gate(self, ctx):
                calls.append("veto")
                ctx.hit = False

        class Later(ProbeLayer):
            def gate(self, ctx):
                calls.append("later")

        svc = build_service_stack(tiny_net, "h0", layers=(Veto(), Later()))
        assert svc.probe_host((3,)) is None  # structurally a hit, vetoed
        assert calls == ["veto"]
        assert svc.stats.total_probes == 1 and svc.stats.total_hits == 0

    def test_gate_only_runs_on_hits(self, tiny_net):
        calls = []

        class Gate(ProbeLayer):
            def gate(self, ctx):
                calls.append(ctx.turns)

        svc = build_service_stack(tiny_net, "h0", layers=(Gate(),))
        svc.probe_host((2,))  # structural miss
        assert calls == []

    @pytest.mark.parametrize("kind", ["probe_host", "probe_host_any"])
    def test_one_responder_rule_for_both_host_kinds(self, tiny_net, kind):
        """A host that runs no daemon eats the probe after the gates, for
        the early-host kind as for the plain one: the gate sees the hit,
        the probe misses and is charged the timeout."""
        seen = []

        class Gate(ProbeLayer):
            def gate(self, ctx):
                seen.append((ctx.kind, ctx.turns, ctx.response))

        svc = build_service_stack(
            tiny_net, "h0", layers=(Gate(),), responders=frozenset({"h2"})
        )
        assert getattr(svc, kind)((3,)) is None
        assert seen == [(ProbeKind.HOST, (3,), "h1")]
        missed = build_service_stack(tiny_net, "h0")
        missed.probe_host((2,))
        assert svc.stats.host_probes == 1 and svc.stats.host_hits == 0
        assert svc.stats.elapsed_us == missed.stats.elapsed_us

    def test_vetoed_hit_costs_a_timeout(self, tiny_net):
        class Veto(ProbeLayer):
            def gate(self, ctx):
                ctx.hit = False

        vetoed = build_service_stack(tiny_net, "h0", layers=(Veto(),))
        vetoed.probe_host((3,))
        missed = build_service_stack(tiny_net, "h0")
        missed.probe_host((2,))
        assert vetoed.stats.elapsed_us == missed.stats.elapsed_us

    def test_on_attach_sees_the_service(self, tiny_net):
        class Attach(ProbeLayer):
            def on_attach(self, service):
                self.service = service

        layer = Attach()
        svc = build_service_stack(tiny_net, "h0", layers=(layer,))
        assert layer.service is svc


class TestFactoryAndDescribe:
    def test_default_stack_is_the_plain_quiescent_service(self, tiny_net):
        svc = build_service_stack(tiny_net, "h0")
        assert type(svc) is QuiescentProbeService
        assert svc.find_layer(ProbeLayer) is None
        assert svc.probe_host((3,)) == "h1"

    def test_the_plain_stack_answers_every_probe_kind(self, tiny_net):
        svc = build_service_stack(tiny_net, "h0")
        assert svc.probe_host_any((3,)) == ("h1", (3,))
        assert svc.probe_switch_id(()) == "s0"
        assert svc.probe_switch_id((3,)) is None  # a host, not a switch

    def test_find_layer_locates_layers(self, tiny_net):
        retry = RetryLayer(1)
        svc = build_service_stack(tiny_net, "h0", layers=(retry,))
        assert svc.find_layer(RetryLayer) is retry
        assert svc.find_layer(CapLayer) is None
