"""Unit tests for the prefix-trie incremental path evaluator."""

import pytest

from repro.simulator.collision import CircuitModel, CutThroughModel
from repro.simulator.faults import FaultModel
from repro.simulator.path_eval import (
    IncrementalPathEvaluator,
    PathStatus,
    evaluate_route,
)
from repro.simulator.turns import switch_probe_turns
from repro.topology.generators import build_ring, build_subcluster


@pytest.fixture()
def now_c():
    return build_subcluster("C")


PROBES = [
    (5,),
    (5, 1),
    (5, 1, -2),
    (5, 1, -2, 2),
    (5, 1, -2, 2, -1),
    (7,),
    (-3, 4),
]


class TestEvaluate:
    def test_matches_pure_function_exactly(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            got = ev.evaluate("C-n00", turns)
            want = evaluate_route(now_c, "C-n00", turns)
            assert (got.status, got.hops, got.delivered_to) == (
                want.status,
                want.hops,
                want.delivered_to,
            )
            assert got.nodes == want.nodes
            assert list(got.traversals) == list(want.traversals)
            assert got.failed_at_turn == want.failed_at_turn

    def test_non_host_source_raises_like_pure(self, now_c):
        switch = sorted(now_c.switches)[0]
        with pytest.raises(ValueError, match="not a host"):
            IncrementalPathEvaluator(now_c).evaluate(switch, (1,))

    def test_prefix_extension_costs_one_node(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        ev.evaluate("C-n00", (5, 1, -2))
        nodes_before = ev.stats.nodes
        ev.evaluate("C-n00", (5, 1, -2, 2))
        assert ev.stats.nodes == nodes_before + 1


def _answer(ev, turns):
    got = ev.evaluate("C-n00", turns)
    return got.status, got.nodes, got.delivered_to, got.failed_at_turn


class TestInvalidation:
    def test_mid_run_cut_flushes_once_and_answers_cold(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            ev.evaluate("C-n00", turns)
        nodes = ev.stats.nodes
        last = evaluate_route(now_c, "C-n00", (5, 1, -2)).traversals[-1]
        now_c.disconnect(now_c.wire_at(last.src.node, last.src.port))
        cold = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            assert _answer(ev, turns) == _answer(cold, turns)
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == nodes

    def test_unrelated_cut_flushes_too(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        ev.evaluate("C-n00", (5, 1))
        nodes = ev.stats.nodes
        # A wire the cached walk never crossed: the trie goes all the same,
        # and the walk is rebuilt node for node.
        path = evaluate_route(now_c, "C-n00", (5, 1))
        crossed = {t.src for t in path.traversals} | {
            t.dst for t in path.traversals
        }
        wire = next(
            w for w in now_c.wires if w.a not in crossed and w.b not in crossed
        )
        now_c.disconnect(wire)
        ev.evaluate("C-n00", (5, 1))
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == nodes
        assert ev.stats.nodes == nodes

    def test_epoch_moves_between_walks_flush_once(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        before = _answer(ev, (5, 1, -2))
        wire = next(iter(now_c.wires))
        now_c.disconnect(wire)
        now_c.connect(wire.a.node, wire.a.port, wire.b.node, wire.b.port)
        assert _answer(ev, (5, 1, -2)) == before
        assert ev.stats.invalidations == 1

    def test_fault_reconfig_is_cache_transparent(self, now_c):
        faults = FaultModel()
        ev = IncrementalPathEvaluator(now_c)
        ev.evaluate("C-n00", (5, 1))
        nodes = ev.stats.nodes
        assert nodes > 0
        wire = next(iter(now_c.wires))
        faults.set_dead_wires([frozenset((wire.a, wire.b))])
        got = ev.evaluate("C-n00", (5, 1))
        # Cached walks never consult the fault model (kill decisions are
        # drawn per probe by the services), so a real dead-set change
        # flushes nothing and the path answer is unchanged.
        assert ev.stats.invalidations == 0
        assert ev.stats.nodes == nodes
        want = evaluate_route(now_c, "C-n00", (5, 1))
        assert (got.status, got.delivered_to) == (
            want.status,
            want.delivered_to,
        )

    def test_explicit_invalidate_clears_nodes(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        ev.evaluate("C-n00", (5, 1, -2))
        assert ev.stats.nodes > 0
        ev.invalidate()
        assert ev.stats.nodes == 0
        assert ev.stats.invalidations == 1


class TestProbeInfo:
    @pytest.mark.parametrize(
        "collision", [CircuitModel(), CutThroughModel(slack_hops=2)]
    )
    def test_blocked_matches_collision_model(self, now_c, collision):
        ev = IncrementalPathEvaluator(now_c)
        for turns in PROBES:
            info = ev.probe_info("C-n00", turns, collision)
            path = evaluate_route(now_c, "C-n00", turns)
            assert info.status is path.status
            if path.status is PathStatus.DELIVERED:
                assert info.blocked == collision.blocked_at(path.traversals)

    def test_loopback_info_equals_switch_probe_walk(self, now_c):
        ev = IncrementalPathEvaluator(now_c)
        collision = CircuitModel()
        for turns in PROBES:
            via_loop = ev.loopback_info("C-n00", turns, collision)
            explicit = ev.probe_info(
                "C-n00", switch_probe_turns(turns), collision
            )
            assert via_loop.status is explicit.status
            assert via_loop.hops == explicit.hops
            assert via_loop.delivered_to == explicit.delivered_to
            assert via_loop.blocked == explicit.blocked


class TestNodeBackstop:
    def test_max_nodes_caps_memory_but_stays_correct(self):
        ring = build_ring(4, hosts_per_switch=1)
        mapper = sorted(ring.hosts)[0]
        ev = IncrementalPathEvaluator(ring, max_nodes=3)
        for turns in [(1,), (1, 1), (1, 1, 1), (2,), (2, 1), (1, 2, 1)]:
            got = ev.evaluate(mapper, turns)
            want = evaluate_route(ring, mapper, turns)
            assert (got.status, got.delivered_to) == (
                want.status,
                want.delivered_to,
            )
        assert ev.stats.nodes <= 3 + 2  # cap plus the walk in flight

    @pytest.mark.parametrize("prime", ["walk", "loopback"])
    def test_cut_after_a_backstop_flush_is_seen(self, prime):
        """The backstop fires inside the prefix walk, which then finishes
        on a chain detached from the roots. Nothing may keep serving that
        chain once the topology moves. The backstop flush is the epoch
        flush: it counts the nodes it drops."""
        ring = build_ring(4, hosts_per_switch=1)
        h0 = sorted(ring.hosts)[0]
        ev = IncrementalPathEvaluator(ring, max_nodes=3)
        prefix = (-2, 1, 1)
        if prime == "loopback":
            ev.loopback_info(h0, prefix)
        else:
            ev.evaluate(h0, prefix)
        assert ev.stats.invalidations == 1
        assert ev.stats.nodes_dropped == 4  # the cap plus the node past it
        last = evaluate_route(ring, h0, prefix).traversals[-1]
        ring.disconnect(ring.wire_at(last.src.node, last.src.port))
        got = ev.evaluate(h0, (*prefix, -7))
        want = evaluate_route(ring, h0, (*prefix, -7))
        assert want.status is PathStatus.NO_SUCH_WIRE
        assert (got.status, got.nodes, got.failed_at_turn) == (
            want.status,
            want.nodes,
            want.failed_at_turn,
        )
